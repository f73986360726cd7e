(* lib/guard — admission control and load shedding.

   Unit tests drive the policy state machine with a virtual clock (the
   guard owns no sockets or timers, so every verdict is deterministic);
   the live tests then check the wiring: refusals carry the right
   status and Retry-After on real loopback connections in the event
   loop and blocking (MT/MP) architectures, slow clients get 408 and a
   closed connection instead of a held slot, and the bounded helper
   queue answers early 503 rather than queueing without limit.  The
   sharded guard tests live in {!Test_sharded} (domains must spawn
   after every fork-based test). *)

module Guard = Flash_guard.Guard
module Server = Flash_live.Server
module Client = Flash_live.Client
open Test_status

let vclock t () = !t

let admit = function Guard.Admit -> true | Guard.Reject _ -> false

let reject reason = function
  | Guard.Reject r when r = reason -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Satellite: the overload status codes and the Retry-After helper     *)
(* ------------------------------------------------------------------ *)

let test_overload_statuses () =
  Alcotest.(check int) "408 code" 408 (Http.Status.code Http.Status.Request_timeout);
  Alcotest.(check int) "429 code" 429 (Http.Status.code Http.Status.Too_many_requests);
  Alcotest.(check int) "503 code" 503 (Http.Status.code Http.Status.Service_unavailable);
  Alcotest.(check string) "429 reason" "Too Many Requests"
    (Http.Status.reason Http.Status.Too_many_requests);
  Alcotest.(check string) "503 reason" "Service Unavailable"
    (Http.Status.reason Http.Status.Service_unavailable)

let test_retry_after_header () =
  let name, value = Http.Response.retry_after 2 in
  Alcotest.(check string) "header name" "Retry-After" name;
  Alcotest.(check string) "delta-seconds" "2" value;
  Alcotest.(check string) "zero is legal" "0"
    (snd (Http.Response.retry_after 0));
  Alcotest.check_raises "negative refused"
    (Invalid_argument "Response.retry_after: negative delay") (fun () ->
      ignore (Http.Response.retry_after (-1)))

(* ------------------------------------------------------------------ *)
(* Policy unit tests (virtual clock)                                   *)
(* ------------------------------------------------------------------ *)

let test_default_inert () =
  Alcotest.(check bool) "defaults disabled" false
    (Guard.enabled Guard.default_config);
  Alcotest.(check bool) "any limit enables" true
    (Guard.enabled
       { Guard.default_config with Guard.max_conns_per_ip = Some 1 });
  Alcotest.(check bool) "header deadline enables" true
    (Guard.enabled { Guard.default_config with Guard.header_deadline = 1. });
  let g = Guard.create Guard.default_config in
  for _ = 1 to 50 do
    Alcotest.(check bool) "inert admits connects" true
      (admit (Guard.on_connect g ~peer:"10.0.0.1"));
    Alcotest.(check bool) "inert admits requests" true
      (admit (Guard.on_request g ~peer:"10.0.0.1"))
  done;
  Alcotest.(check int) "nothing shed" 0 (Guard.shed_total g)

let test_conn_cap () =
  let g =
    Guard.create { Guard.default_config with Guard.max_conns_per_ip = Some 2 }
  in
  Alcotest.(check bool) "first admits" true
    (admit (Guard.on_connect g ~peer:"a"));
  Alcotest.(check bool) "second admits" true
    (admit (Guard.on_connect g ~peer:"a"));
  Alcotest.(check bool) "third refused" true
    (reject Guard.Conn_limit (Guard.on_connect g ~peer:"a"));
  Alcotest.(check bool) "other peer unaffected" true
    (admit (Guard.on_connect g ~peer:"b"));
  Guard.on_disconnect g ~peer:"a";
  Alcotest.(check bool) "slot freed on disconnect" true
    (admit (Guard.on_connect g ~peer:"a"));
  Alcotest.(check int) "one shed, reason-labeled" 1
    (Guard.shed_count g Guard.Conn_limit);
  Alcotest.(check int) "total matches" 1 (Guard.shed_total g)

let test_rate_window_slides () =
  let now = ref 0. in
  let g =
    Guard.create ~clock:(vclock now)
      {
        Guard.default_config with
        Guard.max_rps_per_ip = Some 2.;
        rps_window = 1.0;
      }
  in
  let p = "a" in
  Alcotest.(check bool) "1st in window" true (admit (Guard.on_request g ~peer:p));
  Alcotest.(check bool) "2nd in window" true (admit (Guard.on_request g ~peer:p));
  Alcotest.(check bool) "3rd at cap refused" true
    (reject Guard.Rate_limit (Guard.on_request g ~peer:p));
  (* Sliding overlap: at t=1.2 the previous bucket (2 requests) still
     covers 80% of the window, estimate 1.6/s < 2 — one more fits,
     after which 2*0.8 + 1 = 2.6/s is over the cap again. *)
  now := 1.2;
  Alcotest.(check bool) "overlap leaves room for one" true
    (admit (Guard.on_request g ~peer:p));
  Alcotest.(check bool) "then over the cap" true
    (reject Guard.Rate_limit (Guard.on_request g ~peer:p));
  (* Two full windows later the history has aged out entirely. *)
  now := 3.5;
  Alcotest.(check bool) "cold window admits" true
    (admit (Guard.on_request g ~peer:p));
  Alcotest.(check int) "rate sheds counted" 2
    (Guard.shed_count g Guard.Rate_limit)

let test_pressure_ladder () =
  let g =
    Guard.create { Guard.default_config with Guard.slo_shed = true }
  in
  let check name lvl = Alcotest.(check int) name lvl (Guard.level_code (Guard.level g)) in
  check "starts normal" 0;
  Guard.note_pressure g ~state_code:1 ~burn:0.1;
  check "degraded sheds idle" 1;
  Guard.note_pressure g ~state_code:2 ~burn:0.3;
  check "breached sheds new" 2;
  Alcotest.(check bool) "admission refused under shed_new" true
    (reject Guard.Admission (Guard.on_connect g ~peer:"a"));
  Alcotest.(check bool) "queue still admits under shed_new" true
    (admit (Guard.queue_admission g));
  Guard.note_pressure g ~state_code:2 ~burn:0.6;
  check "deep burn sheds queue" 3;
  Alcotest.(check bool) "queue refused under shed_queue" true
    (reject Guard.Helper_queue (Guard.queue_admission g));
  Guard.note_pressure g ~state_code:0 ~burn:0.;
  check "recovers to normal" 0;
  Alcotest.(check bool) "admission restored" true
    (admit (Guard.on_connect g ~peer:"a"));
  (* Without the opt-in flag the sensor input is ignored. *)
  let off = Guard.create { Guard.default_config with Guard.max_conns_per_ip = Some 9 } in
  Guard.note_pressure off ~state_code:2 ~burn:0.9;
  Alcotest.(check int) "slo_shed off ignores pressure" 0
    (Guard.level_code (Guard.level off))

let test_slow_client_verdicts () =
  let cfg = { Guard.default_config with Guard.header_deadline = 0.5 } in
  Alcotest.(check bool) "within deadline" false
    (Guard.header_overdue cfg ~started:10. ~now:10.4);
  Alcotest.(check bool) "past deadline" true
    (Guard.header_overdue cfg ~started:10. ~now:10.6);
  Alcotest.(check bool) "deadline off never fires" false
    (Guard.header_overdue Guard.default_config ~started:0. ~now:1e9);
  let cfg = { Guard.default_config with Guard.min_byte_rate = 100. } in
  Alcotest.(check bool) "below the floor stalls" true
    (Guard.transfer_stalled cfg ~bytes_moved:150 ~interval:2.);
  Alcotest.(check bool) "at the floor is fine" false
    (Guard.transfer_stalled cfg ~bytes_moved:250 ~interval:2.);
  Alcotest.(check bool) "floor off never stalls" false
    (Guard.transfer_stalled Guard.default_config ~bytes_moved:0 ~interval:2.)

let test_sweep_prunes () =
  let now = ref 0. in
  let g =
    Guard.create ~clock:(vclock now)
      { Guard.default_config with Guard.max_conns_per_ip = Some 8 }
  in
  ignore (Guard.on_connect g ~peer:"idle");
  Guard.on_disconnect g ~peer:"idle";
  ignore (Guard.on_connect g ~peer:"live");
  Alcotest.(check int) "both tracked" 2 (Guard.tracked_peers g);
  now := 10.;
  Guard.sweep g;
  Alcotest.(check int) "cold ledger dropped, live one kept" 1
    (Guard.tracked_peers g);
  ignore (Guard.on_request g ~peer:"fresh");
  Guard.sweep g;
  Alcotest.(check int) "warm rate window survives the sweep" 2
    (Guard.tracked_peers g)

let test_reason_labels () =
  let labels = List.map Guard.reason_label Guard.all_reasons in
  Alcotest.(check int) "labels distinct"
    (List.length labels)
    (List.length (List.sort_uniq compare labels));
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Printf.sprintf "label %S is snake_case" l)
        true
        (String.length l > 0
        && String.for_all
             (function 'a' .. 'z' | '_' -> true | _ -> false)
             l))
    labels;
  let g = Guard.create Guard.default_config in
  List.iter (fun r -> Guard.shed g r) Guard.all_reasons;
  Guard.shed g Guard.Slow_header;
  Alcotest.(check int) "per-reason counts" 2
    (Guard.shed_count g Guard.Slow_header);
  Alcotest.(check int) "total sums reasons"
    (List.length Guard.all_reasons + 1)
    (Guard.shed_total g)

(* ------------------------------------------------------------------ *)
(* Live integration                                                    *)
(* ------------------------------------------------------------------ *)

let with_guarded ?(mode = Server.Amped) ?(tweak = fun c -> c) guard f =
  let docroot = Test_live.make_docroot () in
  let config =
    tweak { (Server.default_config ~docroot) with Server.mode; guard }
  in
  with_config config f

(* Read whatever the server sends on a raw connection until EOF (or a
   5s safety timeout): refusals at the door are written before the
   accept loop ever sees a request, so a silent connect must still
   yield a complete error response. *)
let raw_read_all port ~send =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      (match send with
      | "" -> ()
      | s -> ignore (Unix.write_substring fd s 0 (String.length s)));
      let buf = Bytes.create 4096 in
      let out = Buffer.create 256 in
      (try
         let rec loop () =
           match Unix.read fd buf 0 (Bytes.length buf) with
           | 0 -> ()
           | n ->
               Buffer.add_subbytes out buf 0 n;
               loop ()
         in
         loop ()
       with Unix.Unix_error _ -> ());
      Buffer.contents out)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let status_line_of s =
  match String.index_opt s '\r' with
  | Some i -> String.sub s 0 i
  | None -> s

(* A second connection past the per-peer cap is answered 429 with
   Retry-After and closed at the door — before a request is even sent —
   and the slot frees once the first connection goes away. *)
let test_live_conn_cap () =
  with_guarded
    { Guard.default_config with Guard.max_conns_per_ip = Some 1 }
    (fun server port ->
      let session = Client.Session.connect ~host:"127.0.0.1" ~port () in
      let r = Client.Session.request session "/hello.txt" in
      Alcotest.(check int) "holder serves" 200 r.Client.status;
      let refusal = raw_read_all port ~send:"" in
      Alcotest.(check bool)
        (Printf.sprintf "refused at the door: %S" (status_line_of refusal))
        true
        (contains refusal " 429 Too Many Requests");
      Alcotest.(check bool) "carries Retry-After" true
        (contains refusal "retry-after:" || contains refusal "Retry-After:");
      Client.Session.close session;
      (* The disconnect is processed asynchronously; the slot must come
         back. *)
      let rec reconnect tries =
        let r = Client.get ~host:"127.0.0.1" ~port "/hello.txt" in
        if r.Client.status = 200 then r
        else if tries = 0 then r
        else begin
          Thread.delay 0.05;
          reconnect (tries - 1)
        end
      in
      Alcotest.(check int) "slot frees on disconnect" 200
        (reconnect 40).Client.status;
      let stats = Server.stats server in
      Alcotest.(check bool) "refusal counted as error" true
        (stats.Server.errors >= 1))

(* The per-peer rate cap answers 429 + Retry-After on the request path
   and drops the connection; once the window slides past, the same peer
   is served again. *)
let test_live_rate_cap ~mode () =
  with_guarded ~mode
    {
      Guard.default_config with
      Guard.max_rps_per_ip = Some 1.;
      rps_window = 0.5;
      retry_after = 3;
    }
    (fun _server port ->
      let session = Client.Session.connect ~host:"127.0.0.1" ~port () in
      let r1 = Client.Session.request session "/hello.txt" in
      Alcotest.(check int) "first request fine" 200 r1.Client.status;
      let r2 = Client.Session.request session "/hello.txt" in
      Alcotest.(check int) "second rate-limited" 429 r2.Client.status;
      Alcotest.(check (option string))
        "Retry-After advertises the configured pause" (Some "3")
        (List.assoc_opt "retry-after" r2.Client.headers);
      Alcotest.(check (option string))
        "rate refusal closes the connection" (Some "close")
        (List.assoc_opt "connection" r2.Client.headers);
      Client.Session.close session;
      (* Two full windows later the ledger is cold again. *)
      Thread.delay 1.1;
      let r3 = Client.get ~host:"127.0.0.1" ~port "/hello.txt" in
      Alcotest.(check int) "window slides, peer served" 200 r3.Client.status)

(* A client that trickles its header one byte per 0.1 s against a 0.3 s
   deadline gets 408 and a closed connection within the deadline, in
   every mode — the byte-at-a-time defense the idle timer cannot provide
   (every byte refreshes [last_active]). *)
let test_live_slow_header mode () =
  with_guarded ~mode
    { Guard.default_config with Guard.header_deadline = 0.3 }
    (fun _server port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          let head =
            "GET /hello.txt HTTP/1.1\r\nHost: x\r\nX-Pad: trickle\r\n"
          in
          let t0 = Unix.gettimeofday () in
          (* Trickle until the server answers (or hangs up on us). *)
          let rec trickle i =
            let answered =
              match Unix.select [ fd ] [] [] 0. with
              | [], _, _ -> false
              | _ -> true
            in
            if (not answered) && i < String.length head then
              match Unix.write_substring fd head i 1 with
              | _ ->
                  Thread.delay 0.1;
                  trickle (i + 1)
              | exception Unix.Unix_error _ -> ()
          in
          trickle 0;
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
          let buf = Bytes.create 4096 in
          let out = Buffer.create 256 in
          (try
             let rec loop () =
               match Unix.read fd buf 0 (Bytes.length buf) with
               | 0 -> ()
               | n ->
                   Buffer.add_subbytes out buf 0 n;
                   loop ()
             in
             loop ()
           with Unix.Unix_error _ -> ());
          let elapsed = Unix.gettimeofday () -. t0 in
          let response = Buffer.contents out in
          Alcotest.(check bool)
            (Printf.sprintf "trickled header times out: %S"
               (status_line_of response))
            true
            (contains response " 408 Request Timeout");
          Alcotest.(check bool) "and the connection closes" true
            (contains response "connection: close"
            || contains response "Connection: close");
          Alcotest.(check bool)
            (Printf.sprintf "408 long before the trickle ends (%.2f s)"
               elapsed)
            true (elapsed < 1.5));
      (* A prompt client on the same server is untouched. *)
      let r = Client.get ~host:"127.0.0.1" ~port "/hello.txt" in
      Alcotest.(check int) "fast client unaffected" 200 r.Client.status)

(* With the helper queue bounded, a stampede of cold-disk work gets a
   mix of 200s and early 503+Retry-After — and every response arrives;
   nothing queues unboundedly or hangs. *)
let test_live_helper_queue_bound () =
  with_guarded
    ~tweak:(fun c ->
      {
        c with
        Server.helpers = 1;
        max_cached_file = 0;
        slow_read = Some (fun _ -> Thread.delay 0.08);
      })
    { Guard.default_config with Guard.max_helper_queue = Some 1 }
    (fun _server port ->
      let results = Array.make 6 0 in
      let advised = Array.make 6 false in
      let threads =
        List.init 6 (fun i ->
            Thread.create
              (fun () ->
                match Client.get ~host:"127.0.0.1" ~port "/hello.txt" with
                | r ->
                    results.(i) <- r.Client.status;
                    advised.(i) <-
                      List.mem_assoc "retry-after" r.Client.headers
                | exception _ -> results.(i) <- -1)
              ())
      in
      List.iter Thread.join threads;
      let count st = Array.fold_left (fun a s -> if s = st then a + 1 else a) 0 results in
      Alcotest.(check bool) "some served" true (count 200 >= 1);
      Alcotest.(check bool) "overflow got early 503" true (count 503 >= 1);
      Array.iteri
        (fun i st ->
          if st = 503 then
            Alcotest.(check bool) "every 503 carries Retry-After" true
              advised.(i))
        results;
      Alcotest.(check int) "every request answered" 0 (count (-1));
      (* One job in flight plus one queued is the whole allowed depth. *)
      let j = get_status_json port in
      Alcotest.(check bool) "queue depth hwm bounded" true
        (to_int (row j "flash_helper_queue_depth_hwm") <= 2);
      Alcotest.(check bool) "refusals accounted" true
        (to_int (row j "flash_helper_rejected_total") >= 1);
      (* The sheds are visible, reason-labeled, in the status listing
         and /metrics. *)
      Alcotest.(check bool) "helper_queue reason labeled" true
        (to_int
           (row j
              ~labels:[ ("reason", "helper_queue") ]
              "flash_guard_shed_total")
        >= 1);
      let m = (get port "/metrics").Client.body in
      (match Obs.Exposition.validate m with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "/metrics invalid with guard: %s" msg);
      Alcotest.(check bool) "flash_guard_shed_total exported" true
        (contains m "flash_guard_shed_total{reason=\"helper_queue\"}");
      Alcotest.(check bool) "guard state gauge exported" true
        (contains m "flash_guard_state"))

(* The status listing: an enabled guard lists its level, peers and one
   row per shed reason; a disabled guard lists no flash_guard_* row and
   exports no such series. *)
let test_live_status_views () =
  with_guarded
    { Guard.default_config with Guard.max_conns_per_ip = Some 64 }
    (fun _server port ->
      ignore (Client.get ~host:"127.0.0.1" ~port "/hello.txt");
      let j = get_status_json port in
      Alcotest.(check int) "level starts normal" 0
        (to_int (row j "flash_guard_state"));
      Alcotest.(check bool) "peers tracked" true
        (to_int (row j "flash_guard_tracked_peers") >= 1);
      let sheds = rows j "flash_guard_shed_total" in
      Alcotest.(check (list string))
        "a row per reason"
        (List.map Guard.reason_label Guard.all_reasons)
        (List.map (fun (labels, _) -> List.assoc "reason" labels) sheds);
      Alcotest.(check (float 0.)) "nothing shed yet" 0.
        (List.fold_left (fun a (_, v) -> a +. v) 0. sheds));
  let docroot = Test_live.make_docroot () in
  with_config (Server.default_config ~docroot) (fun _server port ->
      Alcotest.(check bool) "no guard rows when disabled" false
        (contains (get port "/server-status").Client.body "flash_guard_");
      Alcotest.(check bool) "no guard series when disabled" false
        (contains (get port "/metrics").Client.body "flash_guard_"))

let suite =
  [
    Alcotest.test_case "overload status codes" `Quick test_overload_statuses;
    Alcotest.test_case "Retry-After helper" `Quick test_retry_after_header;
    Alcotest.test_case "default config is inert" `Quick test_default_inert;
    Alcotest.test_case "per-peer connection cap" `Quick test_conn_cap;
    Alcotest.test_case "sliding rate window" `Quick test_rate_window_slides;
    Alcotest.test_case "pressure ladder" `Quick test_pressure_ladder;
    Alcotest.test_case "slow-client verdicts" `Quick test_slow_client_verdicts;
    Alcotest.test_case "sweep prunes cold ledgers" `Quick test_sweep_prunes;
    Alcotest.test_case "shed reasons and counters" `Quick test_reason_labels;
    Alcotest.test_case "conn cap refuses at the door (429)" `Quick
      test_live_conn_cap;
    Alcotest.test_case "rate cap 429 + Retry-After (event loop)" `Quick
      (test_live_rate_cap ~mode:Server.Amped);
    Alcotest.test_case "rate cap 429 + Retry-After (MT)" `Quick
      (test_live_rate_cap ~mode:(Server.Mt 2));
    Alcotest.test_case "rate cap 429 + Retry-After (MP)" `Quick
      (test_live_rate_cap ~mode:(Server.Mp 2));
    Alcotest.test_case "slow header gets 408" `Quick
      (test_live_slow_header Server.Amped);
    Alcotest.test_case "slow header gets 408 (SPED)" `Quick
      (test_live_slow_header Server.Sped);
    Alcotest.test_case "slow header gets 408 (MP)" `Quick
      (test_live_slow_header (Server.Mp 2));
    Alcotest.test_case "slow header gets 408 (MT)" `Quick
      (test_live_slow_header (Server.Mt 2));
    Alcotest.test_case "bounded helper queue sheds 503" `Quick
      test_live_helper_queue_bound;
    Alcotest.test_case "status views and metrics" `Quick test_live_status_views;
  ]
