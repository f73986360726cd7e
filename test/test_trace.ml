(* Request-lifecycle tracing: unit and property tests of the Obs.Trace
   collector (ring buffer, nesting, Chrome JSON) plus live integration
   across the four architectures — the disk-read span must land on the
   helper track under AMPED and on the main loop under SPED, MP
   children's traces must reach the parent whole over their report
   pipes, and /server-trace must serve parseable Chrome trace-event
   JSON everywhere. *)

module Server = Flash_live.Server
module Client = Flash_live.Client
module Trace = Obs.Trace

(* A collector on a hand-cranked clock. *)
let mk ?(capacity = 4) ?(max_spans = 8) () =
  let now = ref 0.0 in
  let t = Trace.create ~clock:(fun () -> !now) ~capacity ~max_spans () in
  (t, now)

let tick now dt = now := !now +. dt

(* ------------------------------------------------------------------ *)
(* Ring-buffer properties                                              *)
(* ------------------------------------------------------------------ *)

(* The whole ring against a list model.  Traces of 0 to past
   [max_spans] spans wrap the ring several times, so every slot is
   rewritten by traces longer and shorter than the one it held: ids,
   labels, span names, tracks, times, depths and [truncated] must all
   come back as the newest traces had them.  Every third span is left
   open, so later ones nest under it and [complete] closes it. *)
let prop_ring_capacity =
  QCheck.Test.make ~count:200 ~name:"ring keeps the newest <= capacity traces"
    QCheck.(
      triple (int_range 1 8) (int_range 1 6)
        (list_of_size Gen.(int_range 0 40) (int_range 0 9)))
    (fun (cap, max_spans, counts) ->
      let now = ref 0.0 in
      let t =
        Trace.create ~clock:(fun () -> !now) ~capacity:cap ~max_spans ()
      in
      let model =
        List.mapi
          (fun i k ->
            let label = Printf.sprintf "req-%d" i in
            let t_begin = !now in
            let tr = Trace.start t ~label () in
            let began =
              List.init k (fun j ->
                  tick now 1.0;
                  let name = Printf.sprintf "s%d.%d" i j in
                  let track = if j mod 2 = 0 then "main-loop" else "helper" in
                  let sp = Trace.begin_span t tr ~track name in
                  let t_start = !now in
                  tick now 0.5;
                  if j mod 3 <> 2 then Trace.end_span t sp;
                  (name, track, t_start, j))
            in
            tick now 1.0;
            let t_end = !now in
            Trace.complete t tr;
            let spans =
              List.filter_map
                (fun (name, track, t_start, j) ->
                  if j >= max_spans then None
                  else
                    Some
                      {
                        Trace.name;
                        track;
                        t_start;
                        t_stop = (if j mod 3 = 2 then t_end else t_start +. 0.5);
                        depth = j / 3;
                      })
                began
            in
            {
              Trace.id = i;
              label;
              t_begin;
              t_end;
              spans;
              truncated = max 0 (k - max_spans);
            })
          counts
      in
      let n = List.length counts in
      Trace.completed t = n
      && Trace.evicted t = max 0 (n - cap)
      && (* FIFO eviction: the survivors are the newest, oldest first. *)
      Trace.snapshot t = List.filteri (fun i _ -> i >= n - min n cap) model)

let prop_span_bound =
  QCheck.Test.make ~count:200 ~name:"per-trace span count is bounded"
    QCheck.(pair (int_range 0 30) (int_range 1 10))
    (fun (n, bound) ->
      let now = ref 0.0 in
      let t = Trace.create ~clock:(fun () -> !now) ~max_spans:bound () in
      let tr = Trace.start t () in
      for i = 0 to n - 1 do
        let sp = Trace.begin_span t tr (Printf.sprintf "s%d" i) in
        tick now 0.5;
        Trace.end_span t sp
      done;
      let d = Trace.finish t tr in
      List.length d.Trace.spans <= bound
      && d.Trace.truncated = max 0 (n - bound)
      && List.length d.Trace.spans + d.Trace.truncated = n)

(* Random begin/end sequences: whatever the interleaving, finished
   traces are well-formed — spans have t_start <= t_stop within the
   trace window, and depths are non-negative. *)
let prop_well_formed =
  let op = QCheck.Gen.(frequency [ (3, return `Begin); (2, return `End) ]) in
  QCheck.Test.make ~count:300 ~name:"random begin/end yields well-formed spans"
    (QCheck.make QCheck.Gen.(list_size (int_range 0 40) op))
    (fun ops ->
      let now = ref 0.0 in
      let t = Trace.create ~clock:(fun () -> !now) ~max_spans:64 () in
      let tr = Trace.start t () in
      let stack = ref [] in
      List.iteri
        (fun i o ->
          tick now 1.0;
          match o with
          | `Begin -> stack := Trace.begin_span t tr (Printf.sprintf "s%d" i) :: !stack
          | `End -> (
              match !stack with
              | [] -> ()
              | sp :: rest ->
                  Trace.end_span t sp;
                  stack := rest))
        ops;
      tick now 1.0;
      let d = Trace.finish t tr in
      List.for_all
        (fun (s : Trace.span_data) ->
          s.Trace.t_start <= s.Trace.t_stop
          && s.Trace.t_start >= d.Trace.t_begin
          && s.Trace.t_stop <= d.Trace.t_end
          && s.Trace.depth >= 0)
        d.Trace.spans)

(* [record] against the span calls it replaced in the live server: for
   every request its stamps can describe (a head never parsed, work cut
   short by a close, a refused fill sent on to a helper, a trace past
   [max_spans]), the ring holds the same trace.  The span calls are
   made as the server made them: the work phase closes at the response
   stamp or before a helper is asked, and the write at the finish. *)
let prop_record_matches_spans =
  let gen =
    QCheck.Gen.(
      triple
        (quad bool bool bool (oneofl [ ""; "fill"; "disk-read"; "cgi" ]))
        (quad bool bool bool bool) (int_range 1 9))
  in
  QCheck.Test.make ~count:500 ~name:"record writes what the span calls wrote"
    (QCheck.make gen)
    (fun ( (first, parsed, resolved, work),
           (helped, written, closing, cut),
           max_spans ) ->
      (* What a request can reach: lookup, work and helper only after
         its head parsed, and work left open only when nothing follows
         it (cut off by a close). *)
      let resolved = parsed && resolved
      and work = if parsed then work else ""
      and helped = parsed && helped in
      let work_open = work <> "" && cut && (not helped) && not written in
      let st = Trace.stamps () in
      let clock = ref 100. in
      let next () =
        clock := !clock +. 1.;
        !clock
      in
      if first then st.Trace.accepted <- next ();
      st.Trace.head <- next ();
      if parsed then st.Trace.parsed <- next ();
      if resolved then st.Trace.looked_up <- next ();
      if work <> "" then st.Trace.work_start <- next ();
      (* A fill refused before its helper ends there; other work ends
         at the response stamp. *)
      if work <> "" && (not work_open) && (helped || not written) then
        st.Trace.work_stop <- next ();
      if helped then begin
        st.Trace.enqueued <- next ();
        st.Trace.started <- next ();
        st.Trace.finished <- next ()
      end;
      if written then begin
        st.Trace.ready <- next ();
        if work <> "" && Float.is_nan st.Trace.work_stop then
          st.Trace.work_stop <- st.Trace.ready
      end;
      st.Trace.ended <- next ();
      let meth, target = if parsed then ("GET", "/x") else ("", "request") in
      let collector () =
        Trace.create ~clock:(fun () -> !clock) ~max_spans ()
      in
      let recorded = collector () in
      Trace.record recorded st ~track:"loop" ~work ~meth ~target ~closing;
      let spans = collector () in
      let label = if parsed then "GET /x" else "request" in
      let tr =
        if first then begin
          let tr = Trace.start spans ~at:st.Trace.accepted ~label () in
          Trace.add_span spans ~track:"loop" ~name:"accept"
            ~start:st.Trace.accepted ~stop:st.Trace.accepted tr;
          tr
        end
        else begin
          let tr = Trace.start spans ~at:st.Trace.head ~label () in
          Trace.instant spans tr ~track:"loop" ~at:st.Trace.head
            "keepalive-reuse";
          tr
        end
      in
      let parse =
        Trace.begin_span spans tr ~track:"loop" ~at:st.Trace.head "parse"
      in
      if parsed then Trace.end_span spans ~at:st.Trace.parsed parse;
      if resolved then
        Trace.end_span spans ~at:st.Trace.looked_up
          (Trace.begin_span spans tr ~track:"loop" ~at:st.Trace.parsed
             "resolve");
      let w =
        if work = "" then None
        else
          Some
            (Trace.begin_span spans tr ~track:"loop" ~at:st.Trace.work_start
               work)
      in
      (match w with
      | Some w when not work_open -> Trace.end_span spans ~at:st.Trace.work_stop w
      | _ -> ());
      if helped then begin
        Trace.add_span spans ~track:"helper" ~name:"helper-queue"
          ~start:st.Trace.enqueued ~stop:st.Trace.started tr;
        Trace.add_span spans ~track:"helper" ~name:"disk-read"
          ~start:st.Trace.started ~stop:st.Trace.finished tr
      end;
      let at = st.Trace.ended in
      if written then
        Trace.end_span spans ~at
          (Trace.begin_span spans tr ~track:"loop" ~at:st.Trace.ready "write");
      if closing then Trace.instant spans tr ~track:"loop" ~at "close";
      Trace.complete spans ~at tr;
      Trace.snapshot recorded = Trace.snapshot spans)

(* A finished trace is copied into a slot the ring reuses, so the ring
   keeps nothing a trace allocated: once every slot has held a trace,
   minor collections promote next to nothing per trace.  A ring that
   held each trace's records and span lists promoted all of them. *)
let test_ring_retains_nothing_young () =
  let now = ref 0.0 in
  let t = Trace.create ~clock:(fun () -> !now) ~capacity:256 () in
  let run n =
    for i = 1 to n do
      let tr = Trace.start t () in
      List.iter
        (fun name ->
          let sp = Trace.begin_span t tr name in
          tick now 0.001;
          Trace.end_span t sp)
        [ "parse"; "resolve"; "fill"; "write" ];
      ignore (Trace.finish t tr);
      if i mod 100 = 0 then Gc.minor ()
    done
  in
  run 512;
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.promoted_words in
  let n = 10_000 in
  run n;
  Gc.minor ();
  let per_trace =
    ((Gc.quick_stat ()).Gc.promoted_words -. before) /. float_of_int n
  in
  if per_trace >= 4. then
    Alcotest.failf "%.2f words promoted per trace (bound 4)" per_trace

(* end_span on an outer span closes still-open children at the same
   instant — the exporter never sees a dangling child. *)
let test_end_closes_children () =
  let t, now = mk () in
  let tr = Trace.start t () in
  let outer = Trace.begin_span t tr "outer" in
  tick now 1.0;
  let _inner = Trace.begin_span t tr "inner" in
  tick now 1.0;
  Trace.end_span t outer;
  tick now 5.0;
  let d = Trace.finish t tr in
  let inner = List.find (fun s -> s.Trace.name = "inner") d.Trace.spans in
  let outer = List.find (fun s -> s.Trace.name = "outer") d.Trace.spans in
  Alcotest.(check (float 1e-9)) "child closed with parent" outer.Trace.t_stop
    inner.Trace.t_stop;
  Alcotest.(check int) "child nested one deeper" (outer.Trace.depth + 1)
    inner.Trace.depth

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON                                             *)
(* ------------------------------------------------------------------ *)

let chrome_events t =
  let j = Test_status.parse_json (Trace.to_chrome_json (Trace.snapshot t)) in
  match Test_status.member "traceEvents" j with
  | Test_status.Arr evs -> evs
  | _ -> Alcotest.fail "traceEvents is not an array"

let test_chrome_json_roundtrip () =
  let t, now = mk () in
  let tr = Trace.start t ~label:"GET /a\"b\\c\n\x02" () in
  let sp = Trace.begin_span t tr ~track:"he\"lper" "disk\\read" in
  tick now 0.004;
  Trace.end_span t sp;
  Trace.instant t tr "close";
  ignore (Trace.finish t tr);
  let evs = chrome_events t in
  Alcotest.(check bool) "has events" true (List.length evs >= 2);
  let phases =
    List.map (fun e -> Test_status.to_str (Test_status.member "ph" e)) evs
  in
  Alcotest.(check bool) "has complete events" true (List.mem "X" phases);
  (* The nasty track name survives escaping and lands in a pid-naming
     metadata event. *)
  let named =
    List.filter_map
      (fun e ->
        match Test_status.member "ph" e with
        | Test_status.Str "M" ->
            Some
              (Test_status.to_str
                 (Test_status.member "name"
                    (Test_status.member "args" e)))
        | _ -> None)
      evs
  in
  Alcotest.(check bool) "track metadata present" true
    (List.mem "he\"lper" named);
  (* Complete events carry non-negative ts/dur in microseconds. *)
  List.iter
    (fun e ->
      match Test_status.member "ph" e with
      | Test_status.Str "X" ->
          Alcotest.(check bool) "ts >= 0" true
            (Test_status.to_num (Test_status.member "ts" e) >= 0.);
          Alcotest.(check bool) "dur >= 0" true
            (Test_status.to_num (Test_status.member "dur" e) >= 0.)
      | _ -> ())
    evs

let test_chrome_json_empty () =
  let t, _ = mk () in
  let evs = chrome_events t in
  Alcotest.(check int) "no events" 0 (List.length evs)

let test_summary () =
  let t, now = mk () in
  let tr = Trace.start t ~label:"GET /x" () in
  let sp = Trace.begin_span t tr "parse" in
  tick now 0.002;
  Trace.end_span t sp;
  let d = Trace.finish t tr in
  let s = Trace.summary d in
  List.iter
    (fun affix ->
      Alcotest.(check bool) (Printf.sprintf "summary has %S" affix) true
        (Helpers.contains ~affix s))
    [ "GET /x"; "parse"; "main-loop"; "ms" ]

(* ------------------------------------------------------------------ *)
(* Live integration                                                    *)
(* ------------------------------------------------------------------ *)

let with_config config f =
  let server = Server.start_background config in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () -> f server (Server.port server))

let with_mode ?(tweak = fun c -> c) mode f =
  let docroot = Test_live.make_docroot () in
  with_config (tweak { (Server.default_config ~docroot) with Server.mode }) f

let get port path = Client.get ~host:"127.0.0.1" ~port path

(* Traces finish slightly after the response bytes reach the client
   (and MP children report theirs over their pipes), so poll. *)
let await_traces ?(tries = 80) server pred =
  let rec loop tries =
    let snap = Server.trace_snapshot server in
    if pred snap || tries = 0 then snap
    else begin
      Thread.delay 0.05;
      loop (tries - 1)
    end
  in
  loop tries

let span_on ~name ~track (d : Trace.trace_data) =
  List.exists
    (fun (s : Trace.span_data) -> s.Trace.name = name && s.Trace.track = track)
    d.Trace.spans

let has_span ~name ~track snap = List.exists (span_on ~name ~track) snap

(* Every mode serves /server-trace as parseable Chrome JSON containing
   the earlier request.  Both requests ride one keep-alive connection:
   under MP each child serves its own ring, so the trace request must
   land on the child that handled the file request. *)
let test_trace_endpoint mode () =
  with_mode mode (fun server port ->
      let session = Client.Session.connect ~host:"127.0.0.1" ~port () in
      let r1 = Client.Session.request session "/hello.txt" in
      Alcotest.(check int) "request ok" 200 r1.Client.status;
      ignore (await_traces server (fun snap -> List.length snap >= 1));
      let r = Client.Session.request session "/server-trace" in
      Client.Session.close session;
      Alcotest.(check int) "trace endpoint 200" 200 r.Client.status;
      Alcotest.(check (option string))
        "content type" (Some "application/json")
        (List.assoc_opt "content-type" r.Client.headers);
      let j = Test_status.parse_json r.Client.body in
      match Test_status.member "traceEvents" j with
      | Test_status.Arr evs ->
          Alcotest.(check bool) "events present" true (List.length evs > 0);
          let names =
            List.filter_map
              (fun e ->
                match Test_status.member "ph" e with
                | Test_status.Str "X" ->
                    Some (Test_status.to_str (Test_status.member "name" e))
                | _ -> None)
              evs
          in
          Alcotest.(check bool) "parse span exported" true
            (List.mem "parse" names)
      | _ -> Alcotest.fail "traceEvents is not an array")

(* The architectural claim, as data: an identical cold read is
   attributed to the helper track under AMPED and to the main loop
   under SPED. *)
let test_disk_attribution_amped () =
  with_mode Server.Amped (fun server port ->
      ignore (get port "/hello.txt");
      let snap =
        await_traces server (has_span ~name:"disk-read" ~track:"helper")
      in
      Alcotest.(check bool) "disk-read on helper track" true
        (has_span ~name:"disk-read" ~track:"helper" snap);
      Alcotest.(check bool) "helper queue wait recorded" true
        (has_span ~name:"helper-queue" ~track:"helper" snap);
      Alcotest.(check bool) "no main-loop disk-read" false
        (has_span ~name:"disk-read" ~track:"main-loop" snap))

let test_disk_attribution_sped () =
  with_mode Server.Sped (fun server port ->
      ignore (get port "/hello.txt");
      let snap =
        await_traces server (has_span ~name:"disk-read" ~track:"main-loop")
      in
      Alcotest.(check bool) "disk-read inline on the main loop" true
        (has_span ~name:"disk-read" ~track:"main-loop" snap);
      Alcotest.(check bool) "no helper track" false
        (has_span ~name:"disk-read" ~track:"helper" snap))

(* MP: the child runs the request, reports the finished trace over its
   pipe, and the parent's ring shows it on an mp-child track. *)
let test_mp_stitching () =
  with_mode (Server.Mp 2) (fun server port ->
      ignore (get port "/hello.txt");
      let on_child_track (d : Trace.trace_data) =
        List.exists
          (fun (s : Trace.span_data) ->
            String.length s.Trace.track >= 9
            && String.sub s.Trace.track 0 9 = "mp-child-")
          d.Trace.spans
      in
      let snap = await_traces server (List.exists on_child_track) in
      Alcotest.(check bool) "child trace stitched into parent ring" true
        (List.exists on_child_track snap);
      let d = List.find on_child_track snap in
      Alcotest.(check string) "request label crossed the pipe"
        "GET /hello.txt" d.Trace.label)

(* A trace crosses the pipe whole: a label past 255 bytes arrives
   intact in the parent's ring. *)
let test_mp_long_label () =
  with_mode (Server.Mp 2) (fun server port ->
      let target = "/" ^ String.make 300 'a' in
      Alcotest.(check int) "404" 404 (get port target).Client.status;
      let label = "GET " ^ target in
      let has_label =
        List.exists (fun (d : Trace.trace_data) -> d.Trace.label = label)
      in
      Alcotest.(check bool)
        (Printf.sprintf "the %d-byte label arrived whole" (String.length label))
        true
        (has_label (await_traces server has_label)))

let test_mt_track () =
  with_mode (Server.Mt 2) (fun server port ->
      ignore (get port "/hello.txt");
      let on_worker (d : Trace.trace_data) =
        List.exists
          (fun (s : Trace.span_data) ->
            String.length s.Trace.track >= 10
            && String.sub s.Trace.track 0 10 = "mt-worker-")
          d.Trace.spans
      in
      let snap = await_traces server (List.exists on_worker) in
      Alcotest.(check bool) "spans on an mt-worker track" true
        (List.exists on_worker snap))

(* Second request on a persistent connection starts with a
   keepalive-reuse marker instead of accept. *)
let test_keepalive_reuse_span () =
  with_mode Server.Amped (fun server port ->
      let session = Client.Session.connect ~host:"127.0.0.1" ~port () in
      ignore (Client.Session.request session "/hello.txt");
      ignore (Client.Session.request session "/index.html");
      Client.Session.close session;
      let snap =
        await_traces server (fun snap -> List.length snap >= 2)
      in
      Alcotest.(check bool) "first request accepted" true
        (has_span ~name:"accept" ~track:"main-loop" snap);
      Alcotest.(check bool) "second request reuses" true
        (has_span ~name:"keepalive-reuse" ~track:"main-loop" snap))

(* Tracing disabled: no collector, the trace path falls through to the
   docroot (404 here), and the snapshot stays empty. *)
let test_trace_disabled () =
  with_mode ~tweak:(fun c -> { c with Server.trace = false }) Server.Amped
    (fun server port ->
      Alcotest.(check bool) "tracing off" false (Server.tracing_enabled server);
      ignore (get port "/hello.txt");
      let r = get port "/server-trace" in
      Alcotest.(check int) "trace path is a plain 404" 404 r.Client.status;
      Alcotest.(check int) "no traces collected" 0
        (List.length (Server.trace_snapshot server)))

(* The ring bound holds under live traffic too. *)
let test_live_ring_capacity () =
  with_mode ~tweak:(fun c -> { c with Server.trace_capacity = 3 }) Server.Amped
    (fun server port ->
      for _ = 1 to 7 do
        ignore (get port "/hello.txt")
      done;
      let snap = await_traces server (fun snap -> List.length snap >= 3) in
      Alcotest.(check int) "ring capped" 3 (List.length snap))

(* Requests over the slow threshold get their span breakdown appended
   to the slow-request log. *)
let test_slow_request_log () =
  let log = Filename.temp_file "flash_slow" ".log" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove log with Sys_error _ -> ())
    (fun () ->
      with_mode
        ~tweak:(fun c ->
          {
            c with
            Server.slow_request_ms = Some 0.0;
            slow_request_log = Some log;
          })
        Server.Sped
        (fun server port ->
          ignore (get port "/hello.txt");
          ignore (await_traces server (fun snap -> List.length snap >= 1));
          let rec await tries =
            let ic = open_in log in
            let len = in_channel_length ic in
            let contents = really_input_string ic len in
            close_in ic;
            if Helpers.contains ~affix:"/hello.txt" contents || tries = 0 then
              contents
            else begin
              Thread.delay 0.05;
              await (tries - 1)
            end
          in
          let contents = await 40 in
          Alcotest.(check bool) "request logged as slow" true
            (Helpers.contains ~affix:"GET /hello.txt" contents);
          Alcotest.(check bool) "breakdown includes parse span" true
            (Helpers.contains ~affix:"parse" contents);
          Alcotest.(check bool) "breakdown includes the track" true
            (Helpers.contains ~affix:"main-loop" contents)))

(* --access-log-timing appends service time in microseconds after the
   CLF fields. *)
let test_access_log_timing () =
  let log = Filename.temp_file "flash_access" ".log" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove log with Sys_error _ -> ())
    (fun () ->
      with_mode
        ~tweak:(fun c ->
          {
            c with
            Server.access_log = Some log;
            access_log_timing = true;
          })
        Server.Amped
        (fun server port ->
          ignore (get port "/hello.txt");
          ignore (await_traces server (fun snap -> List.length snap >= 1)));
      let ic = open_in log in
      let line = input_line ic in
      close_in ic;
      Alcotest.(check bool) "CLF prefix intact" true
        (Helpers.contains ~affix:"\"GET /hello.txt HTTP/1.1\" 200" line);
      match String.rindex_opt line ' ' with
      | None -> Alcotest.fail "no timing field"
      | Some i -> (
          let last = String.sub line (i + 1) (String.length line - i - 1) in
          match int_of_string_opt last with
          | Some us -> Alcotest.(check bool) "microseconds >= 0" true (us >= 0)
          | None -> Alcotest.failf "timing field %S is not an integer" last))

(* A request is timed from its first byte, not from the accept: a
   client that idles 300 ms before sending logs its request's own
   service time and crosses no 100 ms slow threshold, with tracing on
   or off.  Under MP the request runs in a child, which reports its
   trace over the pipe. *)
let test_first_byte_timing () =
  List.iter
    (fun (name, mode, trace) ->
      let access = Filename.temp_file "flash_access" ".log" in
      let slow = Filename.temp_file "flash_slow" ".log" in
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun f -> try Sys.remove f with Sys_error _ -> ())
            [ access; slow ])
        (fun () ->
          with_mode
            ~tweak:(fun c ->
              {
                c with
                Server.trace;
                access_log = Some access;
                access_log_timing = true;
                slow_request_ms = Some 100.;
                slow_request_log = Some slow;
              })
            mode
            (fun server port ->
              let s = Helpers.Raw.open_session ~port in
              Thread.delay 0.3;
              let r = Helpers.Raw.session_request s "/hello.txt" in
              Helpers.Raw.close_session s;
              Alcotest.(check int) (name ^ ": 200") 200 r.Helpers.Raw.status;
              (* A slow line is written as the trace finishes. *)
              if trace then
                ignore (await_traces server (fun snap -> snap <> []))
              else Thread.delay 0.1);
          let read path =
            let ic = open_in path in
            let s = really_input_string ic (in_channel_length ic) in
            close_in ic;
            s
          in
          let line = String.trim (read access) in
          let us =
            match String.rindex_opt line ' ' with
            | Some i ->
                int_of_string_opt
                  (String.sub line (i + 1) (String.length line - i - 1))
            | None -> None
          in
          (match us with
          | Some us when us < 100_000 -> ()
          | _ -> Alcotest.failf "%s: access log %S times the idle wait" name line);
          Alcotest.(check string) (name ^ ": no slow line") "" (read slow)))
    [
      ("AMPED, tracing on", Server.Amped, true);
      ("AMPED, tracing off", Server.Amped, false);
      ("MP, tracing on", Server.Mp 2, true);
      ("MP, tracing off", Server.Mp 2, false);
    ]

(* Each request kind's trace, frozen whole: its label, then each span's
   name, track kind and depth in ring order, every span inside its
   trace's [t_begin, t_end].  A track is the loop's (its name carries a
   pid or thread id) or the helper's.  The cache holds one of the two
   4 KB files and replaces by LRU, so asking for the other evicts the
   first even after its hits: AMPED then fills a path its helper has
   seen inline, where the helperless modes read every miss on the
   loop.  Exposed with the mode as a parameter, since
   Sharded must run from test_sharded.ml. *)
type track_kind = Loop | Helper

let span_sequences mode () =
  let docroot = Test_live.make_docroot () in
  let page = String.make 4096 'k' in
  List.iter
    (fun f -> Test_live.write_file (Filename.concat docroot f) page)
    [ "k1.txt"; "k2.txt" ];
  let helped =
    match mode with Server.Amped | Server.Sharded _ -> true | _ -> false
  in
  let l name = (name, Loop, 0) in
  let miss =
    if helped then
      [ ("helper-queue", Helper, 0); ("disk-read", Helper, 0); l "write" ]
    else [ l "disk-read"; l "write" ]
  in
  let hit = [ l "resolve"; l "write" ] in
  let reuse = [ l "keepalive-reuse"; l "parse" ] in
  let expected =
    [
      ("GET /k1.txt?first", [ l "accept"; l "parse"; l "resolve" ] @ miss);
      ("GET /k1.txt?hit", reuse @ hit);
      ("GET /k1.txt?304", reuse @ hit);
      ("GET /k1.txt?206", reuse @ hit);
      ("GET /nope.txt?404", reuse @ (l "resolve" :: miss));
      ("GET /k2.txt?evict", reuse @ (l "resolve" :: miss));
      ( "GET /k1.txt?inline",
        reuse
        @ (if helped then [ l "resolve"; l "fill"; l "write" ]
           else [ l "resolve"; l "disk-read"; l "write" ]) );
      ("GET /k1.txt?close", reuse @ hit @ [ l "close" ]);
      ("bad-request", [ l "accept"; l "parse"; l "write"; l "close" ]);
      ( "GET /cgi-bin/echo.sh?x=1",
        [ l "accept"; l "parse"; l "resolve"; l "cgi"; l "write"; l "close" ]
      );
    ]
  in
  with_config
    {
      (Server.default_config ~docroot) with
      Server.mode;
      file_cache_bytes = 6000;
      cache_policy = Flash_cache.Policy.Lru;
    }
    (fun server port ->
      let s = Helpers.Raw.open_session ~port in
      let ask ?(headers = []) target status =
        let r = Helpers.Raw.session_request s ~headers target in
        Alcotest.(check int) target status r.Helpers.Raw.status;
        r
      in
      let first = ask "/k1.txt?first" 200 in
      let etag = List.assoc "etag" first.Helpers.Raw.headers in
      ignore (ask "/k1.txt?hit" 200);
      ignore (ask ~headers:[ ("If-None-Match", etag) ] "/k1.txt?304" 304);
      ignore (ask ~headers:[ ("Range", "bytes=0-9") ] "/k1.txt?206" 206);
      ignore (ask "/nope.txt?404" 404);
      ignore (ask "/k2.txt?evict" 200);
      ignore (ask "/k1.txt?inline" 200);
      let close = "GET /k1.txt?close HTTP/1.1\r\nConnection: close\r\n\r\n" in
      ignore
        (Unix.write_substring s.Helpers.Raw.fd close 0 (String.length close));
      let r, _ = Helpers.Raw.read_response s.Helpers.Raw.fd s.Helpers.Raw.leftover in
      Alcotest.(check int) "close: 200" 200 r.Helpers.Raw.status;
      Helpers.Raw.close_session s;
      let fd = Helpers.Raw.connect ~port in
      let junk = "\x00\x01\x02 garbage\r\n\r\n" in
      ignore (Unix.write_substring fd junk 0 (String.length junk));
      let r, _ = Helpers.Raw.read_response fd "" in
      Unix.close fd;
      Alcotest.(check int) "garbage: 400" 400 r.Helpers.Raw.status;
      Alcotest.(check int) "cgi: 200" 200
        (Helpers.Raw.request ~port "/cgi-bin/echo.sh?x=1").Helpers.Raw.status;
      let labelled label (d : Trace.trace_data) = String.equal d.Trace.label label in
      let snap =
        await_traces server (fun snap ->
            List.for_all
              (fun (label, _) -> List.exists (labelled label) snap)
              expected)
      in
      let show (name, kind, depth) =
        Printf.sprintf "%s@%s/%d" name
          (match kind with Loop -> "loop" | Helper -> "helper")
          depth
      in
      List.iter
        (fun (label, want) ->
          match List.filter (labelled label) snap with
          | [ d ] ->
              let got =
                List.map
                  (fun (sp : Trace.span_data) ->
                    ( sp.Trace.name,
                      (if sp.Trace.track = "helper" then Helper else Loop),
                      sp.Trace.depth ))
                  d.Trace.spans
              in
              Alcotest.(check (list string))
                (label ^ ": spans") (List.map show want) (List.map show got);
              List.iter
                (fun (sp : Trace.span_data) ->
                  if
                    not
                      (d.Trace.t_begin <= sp.Trace.t_start
                      && sp.Trace.t_start <= sp.Trace.t_stop
                      && sp.Trace.t_stop <= d.Trace.t_end)
                  then
                    Alcotest.failf "%s: %s [%f, %f] outside [%f, %f]" label
                      sp.Trace.name sp.Trace.t_start sp.Trace.t_stop
                      d.Trace.t_begin d.Trace.t_end)
                d.Trace.spans
          | ds ->
              Alcotest.failf "%s: %d traces in the ring" label (List.length ds))
        expected)

(* /server-status: the JSON is produced by the real escapers (a hostile
   server_name survives the label escape inside the JSON escape) and
   reports the trace ring. *)
let test_status_json_trace_block () =
  let name = "fla\"sh\\test" in
  with_mode
    ~tweak:(fun c -> { c with Server.server_name = name })
    Server.Amped
    (fun server port ->
      ignore (get port "/hello.txt");
      ignore (await_traces server (fun snap -> List.length snap >= 1));
      let r = get port "/server-status?json" in
      Alcotest.(check int) "status 200" 200 r.Client.status;
      let j = Test_status.parse_json r.Client.body in
      let server_label =
        match Test_status.rows j "flash_build_info" with
        | (labels, _) :: _ -> List.assoc_opt "server" labels
        | [] -> None
      in
      Alcotest.(check (option string))
        "server name escaped and round-tripped" (Some name) server_label;
      let count key = Test_status.to_int (Test_status.row j key) in
      Alcotest.(check bool) "completed counted" true
        (count "flash_traces_completed_total" >= 1);
      Alcotest.(check int) "capacity reported"
        (Server.default_config ~docroot:"/" ).Server.trace_capacity
        (count "flash_trace_ring_capacity"))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_ring_capacity;
    QCheck_alcotest.to_alcotest prop_span_bound;
    QCheck_alcotest.to_alcotest prop_well_formed;
    QCheck_alcotest.to_alcotest prop_record_matches_spans;
    Alcotest.test_case "ring retains nothing young" `Quick
      test_ring_retains_nothing_young;
    Alcotest.test_case "end_span closes open children" `Quick
      test_end_closes_children;
    Alcotest.test_case "chrome JSON round-trips hostile labels" `Quick
      test_chrome_json_roundtrip;
    Alcotest.test_case "chrome JSON of empty ring" `Quick test_chrome_json_empty;
    Alcotest.test_case "slow-request summary line" `Quick test_summary;
    Alcotest.test_case "/server-trace (AMPED)" `Quick
      (test_trace_endpoint Server.Amped);
    Alcotest.test_case "/server-trace (SPED)" `Quick
      (test_trace_endpoint Server.Sped);
    Alcotest.test_case "/server-trace (MT)" `Quick
      (test_trace_endpoint (Server.Mt 2));
    Alcotest.test_case "/server-trace (MP)" `Quick
      (test_trace_endpoint (Server.Mp 2));
    Alcotest.test_case "AMPED cold read runs on the helper track" `Quick
      test_disk_attribution_amped;
    Alcotest.test_case "SPED cold read stalls the main loop" `Quick
      test_disk_attribution_sped;
    Alcotest.test_case "MP child traces stitch over the stats pipe" `Quick
      test_mp_stitching;
    Alcotest.test_case "MP trace labels cross whole" `Quick test_mp_long_label;
    Alcotest.test_case "MT spans carry worker tracks" `Quick test_mt_track;
    Alcotest.test_case "keep-alive reuse marker" `Quick
      test_keepalive_reuse_span;
    Alcotest.test_case "tracing disabled" `Quick test_trace_disabled;
    Alcotest.test_case "live ring capacity" `Quick test_live_ring_capacity;
    Alcotest.test_case "slow-request log" `Quick test_slow_request_log;
    Alcotest.test_case "access-log timing field" `Quick test_access_log_timing;
    Alcotest.test_case "timing counts from the first byte" `Quick
      test_first_byte_timing;
    Alcotest.test_case "status JSON trace block and escaping" `Quick
      test_status_json_trace_block;
    Alcotest.test_case "span sequence per request kind (AMPED)" `Quick
      (span_sequences Server.Amped);
    Alcotest.test_case "span sequence per request kind (SPED)" `Quick
      (span_sequences Server.Sped);
    Alcotest.test_case "span sequence per request kind (MP 2)" `Quick
      (span_sequences (Server.Mp 2));
    Alcotest.test_case "span sequence per request kind (MT 2)" `Quick
      (span_sequences (Server.Mt 2));
  ]
