(* The unified metrics pipeline: registry -> exposition rendering and
   strict validation, the status listing's agreement with the
   exposition (qcheck), the flight recorder's windowed rollups (qcheck:
   merging every window reproduces the global histogram), and the live
   server's /metrics, ?window=N, SLO health and MP gauge consolidation.
   Reuses the JSON reader from {!Test_status}. *)

module Server = Flash_live.Server
module Client = Flash_live.Client
open Test_status

(* ------------------------------------------------------------------ *)
(* Registry -> exposition round trip                                   *)
(* ------------------------------------------------------------------ *)

let test_render_validates () =
  let reg = Obs.Registry.create () in
  let hist = Obs.Histogram.create () in
  Obs.Histogram.record hist 0.004;
  Obs.Histogram.record hist 0.120;
  Obs.Registry.counter reg ~name:"t_requests_total" ~help:"Requests." (fun () ->
      42);
  Obs.Registry.counter reg ~name:"t_responses_total"
    ~help:"Responses by class."
    ~labels:[ ("class", "2xx") ]
    (fun () -> 40);
  Obs.Registry.counter reg ~name:"t_responses_total"
    ~help:"Responses by class."
    ~labels:[ ("class", "4xx") ]
    (fun () -> 2);
  Obs.Registry.gauge reg ~name:"t_active" ~help:"Active now." (fun () -> 3.);
  Obs.Registry.histogram reg ~name:"t_duration_seconds" ~help:"Latency."
    (fun () -> Obs.Histogram.copy hist);
  (* Label values exercising the format's escapes. *)
  Obs.Registry.info reg ~name:"t_build_info" ~help:"Build."
    ~labels:[ ("version", "weird \"quoted\" \\ back\nnewline") ];
  let text = Obs.Exposition.render (Obs.Registry.collect reg) in
  match Obs.Exposition.validate text with
  | Error msg -> Alcotest.failf "rendered exposition invalid: %s" msg
  | Ok families ->
      let find name =
        match List.find_opt (fun f -> f.Obs.Exposition.f_name = name) families with
        | Some f -> f
        | None -> Alcotest.failf "family %s missing" name
      in
      Alcotest.(check string) "counter typed" "counter"
        (find "t_requests_total").Obs.Exposition.f_type;
      Alcotest.(check int) "labelled series" 2
        (List.length (find "t_responses_total").Obs.Exposition.f_series);
      Alcotest.(check string) "histogram typed" "histogram"
        (find "t_duration_seconds").Obs.Exposition.f_type;
      (* The cumulative ladder ends at +Inf and matches _count. *)
      let series = (find "t_duration_seconds").Obs.Exposition.f_series in
      let value name labels =
        match
          List.find_opt
            (fun s ->
              s.Obs.Exposition.s_name = name
              && s.Obs.Exposition.s_labels = labels)
            series
        with
        | Some s -> s.Obs.Exposition.s_value
        | None -> Alcotest.failf "series %s missing" name
      in
      Alcotest.(check (float 0.))
        "+Inf bucket = count" 2.
        (value "t_duration_seconds_bucket" [ ("le", "+Inf") ]);
      Alcotest.(check (float 0.))
        "_count" 2.
        (value "t_duration_seconds_count" []);
      (* The escaped label value survives parsing verbatim. *)
      let info = find "t_build_info" in
      let labels =
        match info.Obs.Exposition.f_series with
        | [ s ] -> s.Obs.Exposition.s_labels
        | _ -> Alcotest.fail "info should be one series"
      in
      Alcotest.(check (option string))
        "escape round-trip"
        (Some "weird \"quoted\" \\ back\nnewline")
        (List.assoc_opt "version" labels)

let test_registry_rejects_duplicates () =
  let reg = Obs.Registry.create () in
  Obs.Registry.counter reg ~name:"dup_total" ~help:"x" (fun () -> 1);
  (match Obs.Registry.counter reg ~name:"dup_total" ~help:"x" (fun () -> 2) with
  | () -> Alcotest.fail "duplicate (name, labels) should be rejected"
  | exception Invalid_argument _ -> ());
  match
    Obs.Registry.counter reg ~name:"bad name!" ~help:"x" (fun () -> 1)
  with
  | () -> Alcotest.fail "invalid metric name should be rejected"
  | exception Invalid_argument _ -> ()

let test_validator_rejects () =
  let reject what text =
    match Obs.Exposition.validate text with
    | Ok _ -> Alcotest.failf "%s should not validate" what
    | Error _ -> ()
  in
  reject "sample without TYPE" "a 1\n";
  reject "duplicate series" "# TYPE a counter\na 1\na 2\n";
  reject "unsorted labels" "# TYPE a counter\na{b=\"1\",a=\"2\"} 1\n";
  reject "negative counter" "# TYPE a counter\na -1\n";
  reject "redeclared family" "# TYPE a counter\na 1\n# TYPE a counter\n";
  reject "non-monotone buckets"
    "# TYPE h histogram\n\
     h_bucket{le=\"0.1\"} 5\n\
     h_bucket{le=\"1\"} 3\n\
     h_bucket{le=\"+Inf\"} 5\n\
     h_sum 0.5\n\
     h_count 5\n";
  reject "missing +Inf bucket"
    "# TYPE h histogram\nh_bucket{le=\"0.1\"} 5\nh_sum 0.5\nh_count 5\n"

(* Random registries: counters, gauges (fractions and byte-sized
   integers up to 2^52), histograms and info series, under label values
   full of quotes, backslashes, spaces and newlines.  A name carries
   its kind, so one family never mixes types. *)
let registry_arb =
  let open QCheck.Gen in
  let label_value =
    string_size ~gen:(oneofl [ 'a'; 'z'; '"'; '\\'; ' '; '\n'; '{'; '=' ])
      (int_bound 6)
  in
  let labels =
    list_size (int_bound 2) (pair (oneofl [ "a"; "b"; "c" ]) label_value)
  in
  let value =
    oneof
      [
        map (fun n -> `Counter n) (int_bound 1_000_000_000);
        map (fun f -> `Gauge f) (float_range (-1e6) 1e6);
        map (fun n -> `Gauge (float_of_int n)) (int_range 0 (1 lsl 52));
        map (fun l -> `Hist l) (list_size (int_bound 20) (float_range 0. 10.));
        return `Info;
      ]
  in
  QCheck.make
    ~print:(fun l -> Printf.sprintf "%d series" (List.length l))
    (list_size (int_bound 12) (triple (int_bound 3) labels value))

let build_registry series =
  let reg = Obs.Registry.create () in
  List.iter
    (fun (i, labels, value) ->
      let labels = List.sort_uniq (fun (a, _) (b, _) -> compare a b) labels in
      let name kind = Printf.sprintf "p_%s_%d" kind i in
      try
        match value with
        | `Counter n ->
            Obs.Registry.counter reg ~name:(name "c") ~help:"c" ~labels
              (fun () -> n)
        | `Gauge f ->
            Obs.Registry.gauge reg ~name:(name "g") ~help:"g" ~labels
              (fun () -> f)
        | `Hist xs ->
            let h = Obs.Histogram.create () in
            List.iter (Obs.Histogram.record h) xs;
            Obs.Registry.histogram reg ~name:(name "h") ~help:"h" ~labels
              (fun () -> h)
        | `Info -> Obs.Registry.info reg ~name:(name "i") ~help:"i" ~labels
      with Invalid_argument _ -> () (* a repeated (name, labels) pair *))
    series;
  reg

(* Every series /metrics carries, buckets aside, reads back from the
   status listing under the same key with the same value, and no key
   repeats. *)
let prop_listing_matches_exposition series =
  let samples = Obs.Registry.collect (build_registry series) in
  let rows = Obs.Exposition.listing samples in
  let keys = List.map fst rows in
  match Obs.Exposition.validate (Obs.Exposition.render samples) with
  | Error msg -> QCheck.Test.fail_reportf "exposition invalid: %s" msg
  | Ok families ->
      List.length (List.sort_uniq compare keys) = List.length keys
      && List.for_all
           (fun (f : Obs.Exposition.family) ->
             List.for_all
               (fun (s : Obs.Exposition.series) ->
                 Filename.check_suffix s.Obs.Exposition.s_name "_bucket"
                 ||
                 match
                   List.assoc_opt
                     (Obs.Exposition.key s.Obs.Exposition.s_name
                        s.Obs.Exposition.s_labels)
                     rows
                 with
                 | Some v ->
                     Float.equal (float_of_string v) s.Obs.Exposition.s_value
                 | None -> false)
               f.Obs.Exposition.f_series)
           families

(* ------------------------------------------------------------------ *)
(* Flight recorder: rollups are exact deltas                           *)
(* ------------------------------------------------------------------ *)

(* Drive a recorder over a registry holding a counter, a gauge and a
   histogram from a manual clock over random traffic batches, and check
   that the ring is lossless: every counter's window deltas sum to its
   final value and the merged window histograms equal the cumulative
   one bucket for bucket (Histogram.diff is exact), while the gauge
   reads its value at close.  A second counter over the same requests
   is registered mid-run: its first window diffs against zero. *)
let recorder_gen =
  QCheck.Gen.(
    list_size (int_range 1 25)
      (pair
         (list_size (int_range 0 15) (float_range 0.0002 0.8))
         (float_range 0.3 2.7)))

let recorder_arbitrary =
  QCheck.make recorder_gen
    ~print:(fun batches ->
      Printf.sprintf "%d batches, %d samples" (List.length batches)
        (List.fold_left (fun a (ls, _) -> a + List.length ls) 0 batches))

let drive_recorder batches =
  let now = ref 0. in
  let requests = ref 0 in
  let global = Obs.Histogram.create () in
  let reg = Obs.Registry.create () in
  Obs.Registry.counter reg ~name:"t_requests_total" ~help:"Requests."
    (fun () -> !requests);
  Obs.Registry.gauge reg ~name:"t_clock_seconds" ~help:"The clock."
    (fun () -> !now);
  Obs.Registry.histogram reg ~name:"t_duration_seconds" ~help:"Latency."
    (fun () -> Obs.Histogram.copy global);
  let r =
    Obs.Recorder.create ~capacity:1000 ~interval:1.0 ~now:(fun () -> !now)
      ~read:(fun () -> Obs.Registry.collect reg)
      ()
  in
  List.iteri
    (fun i (latencies, dt) ->
      if i = List.length batches / 2 then
        Obs.Registry.counter reg ~name:"t_late_total"
          ~help:"Requests, registered mid-run." (fun () -> !requests);
      now := !now +. dt;
      List.iter
        (fun l ->
          incr requests;
          Obs.Histogram.record global l)
        latencies;
      Obs.Recorder.tick r)
    batches;
  Obs.Recorder.flush r;
  (r, !requests, global)

let prop_rollups_lossless batches =
  let r, total, global = drive_recorder batches in
  let rollups = Obs.Recorder.all r in
  let sum name =
    List.fold_left
      (fun a w -> a + Obs.Registry.int_value w.Obs.Recorder.samples name)
      0 rollups
  in
  let merged =
    List.fold_left
      (fun acc w ->
        match Obs.Registry.hist_value w.Obs.Recorder.samples "t_duration_seconds" with
        | Some h -> Obs.Histogram.merge acc h
        | None -> acc)
      (Obs.Histogram.create ()) rollups
  in
  sum "t_requests_total" = total
  && sum "t_late_total" = total
  && Obs.Histogram.count merged = Obs.Histogram.count global
  && Helpers.float_eq ~eps:1e-6 (Obs.Histogram.sum merged)
       (Obs.Histogram.sum global)
  && Obs.Histogram.buckets merged = Obs.Histogram.buckets global
  && List.for_all
       (fun w ->
         w.Obs.Recorder.dur > 0.
         && Helpers.float_eq ~eps:1e-9
              (Obs.Registry.float_value w.Obs.Recorder.samples "t_clock_seconds")
              (w.Obs.Recorder.start +. w.Obs.Recorder.dur))
       rollups

let rollups_of j =
  match member "rollups" j with
  | Arr ws -> ws
  | _ -> Alcotest.fail "rollups should be an array"

let keys_of = function
  | Obj kv -> List.map fst kv
  | _ -> Alcotest.fail "expected a JSON object"

(* A window's listing rows: its keys less [t] and [dur]. *)
let row_keys w = List.filter (fun k -> k <> "t" && k <> "dur") (keys_of w)

let test_dump_round_trips () =
  let r, total, _ =
    drive_recorder [ ([ 0.002; 0.004 ], 1.0); ([ 0.008 ], 1.0); ([], 0.5) ]
  in
  let j = parse_json (Obs.Recorder.dump_json r) in
  Alcotest.(check int) "capacity" 1000 (to_int (member "capacity" j));
  Alcotest.(check (float 1e-9)) "interval" 1.0 (to_num (member "interval" j));
  let rollups = rollups_of j in
  Alcotest.(check bool) "windows recorded" true (List.length rollups >= 2);
  let dumped name =
    List.fold_left (fun a w -> a + to_int (member name w)) 0 rollups
  in
  Alcotest.(check int) "dump is lossless on requests" total
    (dumped "t_requests_total");
  Alcotest.(check int) "and on the histogram's count" total
    (dumped "t_duration_seconds_count");
  List.iter2
    (fun w r ->
      Alcotest.(check bool) "dur positive" true (to_num (member "dur" w) > 0.);
      Alcotest.(check (list string))
        "keyed as the status listing"
        (List.map fst (Obs.Exposition.listing r.Obs.Recorder.samples))
        (row_keys w))
    rollups (Obs.Recorder.all r)

(* ------------------------------------------------------------------ *)
(* Live server: /metrics, ?window=N, SLO, MP gauges                    *)
(* ------------------------------------------------------------------ *)

let with_config config f =
  let server = Server.start_background config in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () -> f server (Server.port server))

let await ?(tries = 80) pred =
  let rec loop tries =
    if pred () || tries = 0 then pred ()
    else begin
      Thread.delay 0.05;
      loop (tries - 1)
    end
  in
  loop tries

let get port path = Client.get ~host:"127.0.0.1" ~port path

let validate_families body =
  match Obs.Exposition.validate body with
  | Ok families -> families
  | Error msg -> Alcotest.failf "/metrics invalid: %s" msg

let family_opt families name =
  List.find_opt (fun f -> f.Obs.Exposition.f_name = name) families

let series_value families ?(labels = []) name =
  match
    List.concat_map (fun f -> f.Obs.Exposition.f_series) families
    |> List.find_opt (fun s ->
           s.Obs.Exposition.s_name = name && s.Obs.Exposition.s_labels = labels)
  with
  | Some s -> s.Obs.Exposition.s_value
  | None -> Alcotest.failf "series %s missing from /metrics" name

let test_metrics_agrees_with_status () =
  let docroot = Test_live.make_docroot () in
  with_config (Server.default_config ~docroot) (fun _server port ->
      ignore (get port "/hello.txt");
      ignore (get port "/hello.txt");
      ignore (get port "/index.html");
      let r = get port "/metrics" in
      Alcotest.(check int) "/metrics 200" 200 r.Client.status;
      Alcotest.(check (option string))
        "exposition content type"
        (Some "text/plain; version=0.0.4")
        (List.assoc_opt "content-type" r.Client.headers);
      let families = validate_families r.Client.body in
      let prom_requests =
        int_of_float (series_value families "flash_http_requests_total")
      in
      let prom_hits =
        int_of_float
          (series_value families
             ~labels:[ ("cache", "file") ]
             "flash_cache_hits_total")
      in
      let prom_writev =
        int_of_float (series_value families "flash_writev_calls_total")
      in
      (* The latency histogram exposes the full cumulative ladder. *)
      (match family_opt families "flash_request_duration_seconds" with
      | None -> Alcotest.fail "latency family missing"
      | Some f ->
          Alcotest.(check string) "latency is a histogram" "histogram"
            f.Obs.Exposition.f_type);
      Alcotest.(check (float 0.))
        "+Inf bucket equals count"
        (series_value families "flash_request_duration_seconds_count")
        (series_value families
           ~labels:[ ("le", "+Inf") ]
           "flash_request_duration_seconds_bucket");
      (* Scraped one request later, the JSON view must agree up to the
         requests issued in between (the scrapes themselves). *)
      let j = get_status_json port in
      let json_requests = to_int (row j "flash_http_requests_total") in
      Alcotest.(check bool) "file requests counted" true (prom_requests >= 3);
      Alcotest.(check bool) "JSON at or after /metrics" true
        (json_requests >= prom_requests && json_requests - prom_requests <= 2);
      Alcotest.(check int) "cache hits agree exactly" prom_hits
        (to_int (row j ~labels:[ ("cache", "file") ] "flash_cache_hits_total"));
      Alcotest.(check bool) "writev counters agree" true
        (prom_writev > 0
        && to_int (row j "flash_writev_calls_total") >= prom_writev))

let test_metrics_disabled () =
  let docroot = Test_live.make_docroot () in
  with_config
    { (Server.default_config ~docroot) with Server.metrics_path = None }
    (fun _server port ->
      let r = get port "/metrics" in
      Alcotest.(check int) "plain 404 when disabled" 404 r.Client.status)

(* A window's request count: the unlabelled row, which sharded is the
   shards' aggregate. *)
let window_requests w = to_int (member "flash_http_requests_total" w)

let test_window_returns_rollups () =
  let docroot = Test_live.make_docroot () in
  with_config
    { (Server.default_config ~docroot) with Server.recorder_interval = 0.05 }
    (fun _server port ->
      for _ = 1 to 5 do
        ignore (get port "/hello.txt");
        Thread.delay 0.06
      done;
      let r = get port "/server-status?window=50" in
      Alcotest.(check int) "window view 200" 200 r.Client.status;
      let j = parse_json r.Client.body in
      Alcotest.(check int) "echoes N" 50 (to_int (member "window" j));
      let rollups = rollups_of j in
      Alcotest.(check bool) "several windows closed" true
        (List.length rollups >= 2);
      let requests = List.fold_left (fun a w -> a + window_requests w) 0 rollups in
      Alcotest.(check bool) "windows saw the traffic" true (requests >= 4);
      Alcotest.(check bool) "some window has non-zero rate" true
        (List.exists
           (fun w -> float_of_int (window_requests w) /. to_num (member "dur" w) > 0.)
           rollups);
      let status = List.sort compare (keys_of (get_status_json port)) in
      List.iter
        (fun w ->
          Alcotest.(check (list string))
            "a window's keys are the status listing's" status
            (List.sort compare (row_keys w)))
        rollups)

(* What the SIGUSR1 handler writes, in [mode]: the windows cover the
   requests served, tile time from one distinct start to the next, and
   every key names a row of the same server's status listing. *)
let test_recorder_dump_parses mode () =
  let docroot = Test_live.make_docroot () in
  with_config
    {
      (Server.default_config ~docroot) with
      Server.mode;
      recorder_interval = 0.05;
    }
    (fun server port ->
      ignore (get port "/hello.txt");
      Thread.delay 0.12;
      ignore (get port "/hello.txt");
      let status = keys_of (get_status_json port) in
      (* MP children report just after their response goes out. *)
      ignore (await (fun () -> (Server.stats server).Server.requests >= 2));
      let rollups = rollups_of (parse_json (Server.recorder_dump server)) in
      Alcotest.(check bool) "dump has windows" true (List.length rollups >= 2);
      let requests = List.fold_left (fun a w -> a + window_requests w) 0 rollups in
      Alcotest.(check bool) "dump covers the requests" true (requests >= 2);
      let rec tiles = function
        | a :: (b :: _ as rest) ->
            let ta = to_num (member "t" a) and tb = to_num (member "t" b) in
            Alcotest.(check bool) "starts strictly increase" true (tb > ta);
            Alcotest.(check (float 1.001e-3))
              "a window ends where the next starts" tb
              (ta +. to_num (member "dur" a));
            tiles rest
        | _ -> ()
      in
      tiles rollups;
      List.iter
        (fun w ->
          List.iter
            (fun k ->
              if not (List.mem k status) then
                Alcotest.failf "window key %s is not a status row" k)
            (row_keys w))
        rollups)

let test_slo_health () =
  let docroot = Test_live.make_docroot () in
  with_config
    {
      (Server.default_config ~docroot) with
      Server.recorder_interval = 0.05;
      latency_slo = Some (99., 10_000.);
    }
    (fun _server port ->
      for _ = 1 to 4 do
        ignore (get port "/hello.txt");
        Thread.delay 0.06
      done;
      let j = get_status_json port in
      Alcotest.(check int) "ten-second budget is healthy" 0
        (to_int (row j "flash_slo_state"));
      Alcotest.(check (float 1e-9)) "no burn" 0.
        (to_num (row j "flash_slo_burn_ratio"));
      Alcotest.(check bool) "windows evaluated" true
        (to_int (row j "flash_slo_windows") >= 1);
      let families = validate_families (get port "/metrics").Client.body in
      Alcotest.(check (float 0.))
        "flash_slo_state healthy=0" 0.
        (series_value families "flash_slo_state");
      match family_opt families "flash_slo_info" with
      | None -> Alcotest.fail "flash_slo_info missing"
      | Some f -> (
          match f.Obs.Exposition.f_series with
          | [ s ] ->
              Alcotest.(check (option string))
                "target labelled" (Some "10000")
                (List.assoc_opt "target_ms" s.Obs.Exposition.s_labels)
          | _ -> Alcotest.fail "flash_slo_info should be one series"))

(* ------------------------------------------------------------------ *)
(* The MP report on the wire                                           *)
(* ------------------------------------------------------------------ *)

module Frame = Flash_live.Stats_frame

(* Random reports: walks of counters, gauges and histograms, and traces
   whose labels, span names and tracks run past 255 bytes; plus the
   sizes of the reads the parent happens to make. *)
let stats_frames_arb =
  let open QCheck.Gen in
  let text =
    string_size ~gen:char
      (frequency [ (4, int_bound 40); (1, int_range 256 1200) ])
  in
  let value =
    frequency
      [
        (2, map (fun n -> Obs.Registry.Counter n) (int_bound 1_000_000));
        (2, map (fun g -> Obs.Registry.Gauge g) (float_bound_inclusive 1e6));
        ( 1,
          map
            (fun xs ->
              let h = Obs.Histogram.create () in
              List.iter (Obs.Histogram.record h) xs;
              Obs.Registry.Hist h)
            (list_size (int_bound 50) (float_bound_inclusive 10.)) );
        (1, return Obs.Registry.Info);
      ]
  in
  let sample =
    map
      (fun (name, labels, value) ->
        { Obs.Registry.name; help = name ^ " help."; labels; value })
      (triple
         (oneofl [ "flash_a_total"; "flash_b"; "flash_c_seconds" ])
         (list_size (int_bound 2) (pair (oneofl [ "cache"; "class" ]) text))
         value)
  in
  let span =
    map
      (fun ((name, track), (t_start, dur, depth)) ->
        { Obs.Trace.name; track; t_start; t_stop = t_start +. dur; depth })
      (pair (pair text text)
         (triple (float_bound_inclusive 1e9) (float_bound_inclusive 1.)
            (int_bound 4)))
  in
  let trace =
    map
      (fun ((label, t_begin), (spans, truncated)) ->
        {
          Obs.Trace.id = 0;
          label;
          t_begin;
          t_end = t_begin +. 1.;
          spans;
          truncated;
        })
      (pair (pair text (float_bound_inclusive 1e9))
         (pair (list_size (int_bound 6) span) (int_bound 3)))
  in
  let report =
    map
      (fun (walk, traces) -> { Frame.walk; traces })
      (pair (list_size (int_bound 30) sample) (list_size (int_bound 4) trace))
  in
  QCheck.make
    ~print:(fun (reports, reads) ->
      Printf.sprintf "%d reports, reads %s" (List.length reports)
        (String.concat "," (List.map string_of_int reads)))
    (pair (list_size (int_range 1 8) report)
       (list_size (int_range 1 20) (int_range 1 5000)))

(* The reports one pipe carries, split at arbitrary read boundaries,
   decode to the same reports in order. *)
let prop_stats_frames (reports, reads) =
  let wire = String.concat "" (List.map Frame.encode reports) in
  let d = Frame.decoder () in
  let rec feed pos reads acc =
    if pos >= String.length wire then List.concat (List.rev acc)
    else
      let n, reads =
        match reads with r :: rest -> (r, rest @ [ r ]) | [] -> (1, [])
      in
      let n = min n (String.length wire - pos) in
      let got = Frame.feed d (Bytes.of_string (String.sub wire pos n)) n in
      feed (pos + n) reads (got :: acc)
  in
  feed 0 reads [] = reports

(* MP consolidation: child gauges are summed at snapshot time from each
   child's latest report — reporting the same gauge again must not
   accumulate.  Two children, two persistent connections: the parent
   reports exactly two active connections no matter how many requests
   (and so reports) each child sends, and zero after both close. *)
let test_mp_gauges_sum_at_snapshot () =
  let docroot = Test_live.make_docroot () in
  with_config
    { (Server.default_config ~docroot) with Server.mode = Server.Mp 2 }
    (fun server port ->
      let s1 = Client.Session.connect ~host:"127.0.0.1" ~port () in
      let s2 = Client.Session.connect ~host:"127.0.0.1" ~port () in
      Fun.protect
        ~finally:(fun () ->
          (try Client.Session.close s1 with _ -> ());
          try Client.Session.close s2 with _ -> ())
        (fun () ->
          ignore (Client.Session.request s1 "/hello.txt");
          ignore (Client.Session.request s2 "/hello.txt");
          Alcotest.(check bool) "two active after first requests" true
            (await (fun () ->
                 (Server.stats server).Server.active_connections = 2));
          (* Many more reports from the same children... *)
          for _ = 1 to 5 do
            ignore (Client.Session.request s1 "/hello.txt");
            ignore (Client.Session.request s2 "/hello.txt")
          done;
          ignore
            (await (fun () -> (Server.stats server).Server.requests >= 12));
          (* ...must not inflate the snapshot sum. *)
          Alcotest.(check int) "still exactly two active" 2
            (Server.stats server).Server.active_connections;
          Alcotest.(check bool) "mapped bytes are a sane gauge" true
            ((Server.stats server).Server.mapped_bytes >= 0));
      Alcotest.(check bool) "zero after both closed" true
        (await (fun () ->
             (Server.stats server).Server.active_connections = 0)))

(* MP counters still consolidate as sums across children. *)
let test_mp_metrics_consolidated () =
  let docroot = Test_live.make_docroot () in
  with_config
    { (Server.default_config ~docroot) with Server.mode = Server.Mp 2 }
    (fun server port ->
      for _ = 1 to 4 do
        ignore (get port "/hello.txt")
      done;
      ignore (await (fun () -> (Server.stats server).Server.requests >= 4));
      let families = validate_families (Server.metrics_body server) in
      Alcotest.(check bool) "parent consolidates child requests" true
        (series_value families "flash_http_requests_total" >= 4.))

(* Mode parity: every mode counts the same fresh-connection requests
   (two files and a missing path) the same way, in [Server.stats] and
   in [metrics_body].  MP and sharded report folds of their members'
   walks, so this holds each fold to what one AMPED loop counts.
   Sharded runs it from test_sharded.ml, after every fork test. *)
let test_mode_parity mode () =
  let docroot = Test_live.make_docroot () in
  with_config
    { (Server.default_config ~docroot) with Server.mode }
    (fun server port ->
      let paths = [ "/hello.txt"; "/index.html"; "/missing.txt" ] in
      for _ = 1 to 3 do
        List.iter
          (fun p ->
            let r = get port p in
            Alcotest.(check int) p
              (if p = "/missing.txt" then 404 else 200)
              r.Client.status)
          paths
      done;
      let n = 9 in
      let lookups (s : Server.stats) =
        s.Server.cache_hits + s.Server.cache_misses
      in
      ignore
        (await (fun () ->
             let s = Server.stats server in
             s.Server.requests >= n && lookups s >= n));
      let s = Server.stats server in
      Alcotest.(check int) "stats requests" n s.Server.requests;
      Alcotest.(check int) "hits + misses = docroot requests" n (lookups s);
      Alcotest.(check bool) "some hits" true (s.Server.cache_hits > 0);
      let families = validate_families (Server.metrics_body server) in
      let v ?labels name = int_of_float (series_value families ?labels name) in
      Alcotest.(check int) "/metrics requests" n
        (v "flash_http_requests_total");
      List.iter
        (fun (cls, want) ->
          Alcotest.(check int) ("responses " ^ cls) want
            (v ~labels:[ ("class", cls) ] "flash_http_responses_total"))
        [ ("2xx", 6); ("3xx", 0); ("4xx", 3); ("5xx", 0) ];
      let fl = [ ("cache", "file") ] in
      Alcotest.(check int) "/metrics hits" s.Server.cache_hits
        (v ~labels:fl "flash_cache_hits_total");
      Alcotest.(check int) "/metrics misses" s.Server.cache_misses
        (v ~labels:fl "flash_cache_misses_total"))

(* The MP parent's view trails an idle child by at most the 50 ms
   report interval: one request shows in [stats] well within 100 ms of
   its response. *)
let test_mp_fresh () =
  let docroot = Test_live.make_docroot () in
  with_config
    { (Server.default_config ~docroot) with Server.mode = Server.Mp 2 }
    (fun server port ->
      Thread.delay 0.2;
      Alcotest.(check int) "idle" 0 (Server.stats server).Server.requests;
      Alcotest.(check int) "200" 200 (get port "/hello.txt").Client.status;
      let answered = Unix.gettimeofday () in
      let rec poll () =
        let late = Unix.gettimeofday () -. answered in
        if (Server.stats server).Server.requests >= 1 then late
        else if late > 1. then late
        else begin
          Thread.delay 0.002;
          poll ()
        end
      in
      let late = poll () in
      if late > 0.1 then
        Alcotest.failf "request reached the parent %.0f ms after its response"
          (late *. 1000.))

(* Pids of this process's live children, from /proc. *)
let child_pids () =
  let me = Unix.getpid () in
  Sys.readdir "/proc" |> Array.to_list
  |> List.filter_map (fun d ->
         match int_of_string_opt d with
         | None -> None
         | Some pid -> (
             match
               In_channel.with_open_bin
                 (Printf.sprintf "/proc/%d/stat" pid)
                 In_channel.input_all
             with
             | exception Sys_error _ -> None
             | stat -> (
                 (* "pid (comm) state ppid ...": comm may hold anything *)
                 let rest =
                   String.sub stat (String.rindex stat ')' + 2)
                     (String.length stat - String.rindex stat ')' - 2)
                 in
                 match String.split_on_char ' ' rest with
                 | state :: ppid :: _
                   when state <> "Z" && int_of_string_opt ppid = Some me ->
                     Some pid
                 | _ -> None)))

(* A dead MP child: its pipe reads EOF once and the parent stops
   watching it, so the parent stays idle; its last walk stays in the
   fold, so counters do not go backwards; the other child serves on. *)
let test_mp_child_death () =
  let docroot = Test_live.make_docroot () in
  let before = child_pids () in
  with_config
    { (Server.default_config ~docroot) with Server.mode = Server.Mp 2 }
    (fun server port ->
      let children =
        List.filter (fun p -> not (List.mem p before)) (child_pids ())
      in
      Alcotest.(check int) "two children" 2 (List.length children);
      for _ = 1 to 6 do
        ignore (get port "/hello.txt")
      done;
      ignore (await (fun () -> (Server.stats server).Server.requests >= 6));
      let requests () =
        series_value
          (validate_families (Server.metrics_body server))
          "flash_http_requests_total"
      in
      let served = requests () in
      let cpu () =
        let t = Unix.times () in
        t.Unix.tms_utime +. t.Unix.tms_stime
      in
      let cpu0 = cpu () in
      Unix.kill (List.hd children) Sys.sigkill;
      Thread.delay 0.5;
      let spent = cpu () -. cpu0 in
      if spent >= 0.05 then
        Alcotest.failf "parent burned %.3f s of CPU after a child died" spent;
      Alcotest.(check bool) "requests do not decrease" true
        (requests () >= served);
      for _ = 1 to 3 do
        Alcotest.(check int) "survivor serves" 200
          (get port "/hello.txt").Client.status
      done)

(* The loop series fold every loop an instance runs.  Two idle
   keep-alive connections each hold an idle timer on the wheel of the
   loop that serves them: a worker's under MP and MT, so a main loop
   that serves nothing cannot stand for them.  Sharded runs it from
   test_sharded.ml, after every fork test. *)
let test_timers_pending mode () =
  let docroot = Test_live.make_docroot () in
  with_config
    { (Server.default_config ~docroot) with Server.mode }
    (fun server port ->
      let s1 = Client.Session.connect ~host:"127.0.0.1" ~port () in
      let s2 = Client.Session.connect ~host:"127.0.0.1" ~port () in
      Fun.protect
        ~finally:(fun () ->
          Client.Session.close s1;
          Client.Session.close s2)
        (fun () ->
          List.iter
            (fun s ->
              let r = Client.Session.request s "/hello.txt" in
              Alcotest.(check int) "served" 200 r.Client.status)
            [ s1; s2 ];
          let pending () =
            series_value
              (validate_families (Server.metrics_body server))
              "flash_timers_pending"
          in
          ignore (await (fun () -> pending () >= 2.));
          let n = pending () in
          if n < 2. then
            Alcotest.failf "flash_timers_pending %g with two idle connections"
              n))

(* MT and MP: the workers accept, so a worker's EMFILE backoff is the
   instance's.  With every accept failing, every worker parks its
   listener, and the gauge reads 1, not one per worker. *)
let test_accept_paused mode () =
  let docroot = Test_live.make_docroot () in
  with_config
    {
      (Server.default_config ~docroot) with
      Server.mode;
      accept_fault = Some (fun () -> true);
    }
    (fun server port ->
      let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close s)
        (fun () ->
          Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          let paused () =
            series_value
              (validate_families (Server.metrics_body server))
              "flash_accept_paused"
          in
          Alcotest.(check bool) "a worker's listener is parked" true
            (await (fun () -> paused () = 1.));
          (* Every worker parks within a backoff or two. *)
          for _ = 1 to 10 do
            Thread.delay 0.05;
            let v = paused () in
            if v > 1. then Alcotest.failf "flash_accept_paused %g" v
          done))

let suite =
  [
    Alcotest.test_case "rendered exposition validates" `Quick
      test_render_validates;
    Alcotest.test_case "registry rejects bad registrations" `Quick
      test_registry_rejects_duplicates;
    Alcotest.test_case "validator rejects malformed payloads" `Quick
      test_validator_rejects;
    Helpers.qcheck_case ~count:200 ~name:"status listing matches /metrics"
      registry_arb prop_listing_matches_exposition;
    Helpers.qcheck_case ~count:150 ~name:"rollup ring is lossless"
      recorder_arbitrary prop_rollups_lossless;
    Alcotest.test_case "recorder dump round-trips JSON" `Quick
      test_dump_round_trips;
    Alcotest.test_case "/metrics agrees with status JSON" `Quick
      test_metrics_agrees_with_status;
    Alcotest.test_case "/metrics disabled serves docroot rules" `Quick
      test_metrics_disabled;
    Alcotest.test_case "?window=N returns live rollups" `Quick
      test_window_returns_rollups;
    Alcotest.test_case "SIGUSR1 dump body parses" `Quick
      (test_recorder_dump_parses Server.Amped);
    Alcotest.test_case "SIGUSR1 dump body parses (SPED)" `Quick
      (test_recorder_dump_parses Server.Sped);
    Alcotest.test_case "SIGUSR1 dump body parses (MP 2)" `Quick
      (test_recorder_dump_parses (Server.Mp 2));
    Alcotest.test_case "SIGUSR1 dump body parses (MT 2)" `Quick
      (test_recorder_dump_parses (Server.Mt 2));
    Alcotest.test_case "SLO health evaluates over windows" `Quick
      test_slo_health;
    Helpers.qcheck_case ~count:100
      ~name:"stats frames decode across split reads" stats_frames_arb
      prop_stats_frames;
    Alcotest.test_case "MP gauges sum at snapshot" `Quick
      test_mp_gauges_sum_at_snapshot;
    Alcotest.test_case "MP /metrics consolidates counters" `Quick
      test_mp_metrics_consolidated;
    Alcotest.test_case "mode parity (AMPED)" `Quick
      (test_mode_parity Server.Amped);
    Alcotest.test_case "mode parity (SPED)" `Quick
      (test_mode_parity Server.Sped);
    Alcotest.test_case "mode parity (MP 2)" `Quick
      (test_mode_parity (Server.Mp 2));
    Alcotest.test_case "mode parity (MT 2)" `Quick
      (test_mode_parity (Server.Mt 2));
    Alcotest.test_case "MP view trails a child by under 100 ms" `Quick
      test_mp_fresh;
    Alcotest.test_case "timers pending fold every loop (AMPED)" `Quick
      (test_timers_pending Server.Amped);
    Alcotest.test_case "timers pending fold every loop (SPED)" `Quick
      (test_timers_pending Server.Sped);
    Alcotest.test_case "timers pending fold every loop (MP 2)" `Quick
      (test_timers_pending (Server.Mp 2));
    Alcotest.test_case "timers pending fold every loop (MT 2)" `Quick
      (test_timers_pending (Server.Mt 2));
    Alcotest.test_case "a worker's accept backoff reads paused (MT 2)" `Quick
      (test_accept_paused (Server.Mt 2));
    Alcotest.test_case "a worker's accept backoff reads paused (MP 2)" `Quick
      (test_accept_paused (Server.Mp 2));
    Alcotest.test_case "dead MP child leaves the parent idle" `Quick
      test_mp_child_death;
  ]
