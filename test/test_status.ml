(* Integration tests for the live server's observability: the
   /server-status endpoint across all four architectures, loop stalls
   separating SPED and MT's blocked worker from AMPED, and the
   keep-alive idle-timeout accounting and cost.  Runs over real
   loopback sockets. *)

module Server = Flash_live.Server
module Client = Flash_live.Client

(* ------------------------------------------------------------------ *)
(* A tiny JSON reader — just enough to check /server-status?json
   without adding a dependency.                                        *)
(* ------------------------------------------------------------------ *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    let m = String.length word in
    if !pos + m <= n && String.sub s !pos m = word then begin
      pos := !pos + m;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some 'n' -> Buffer.add_char b '\n'; advance (); loop ()
          | Some 't' -> Buffer.add_char b '\t'; advance (); loop ()
          | Some 'r' -> Buffer.add_char b '\r'; advance (); loop ()
          | Some 'b' -> Buffer.add_char b '\b'; advance (); loop ()
          | Some 'f' -> Buffer.add_char b '\012'; advance (); loop ()
          | Some 'u' ->
              (* Escaped code point: not needed for status output; keep a
                 placeholder so offsets stay sane. *)
              pos := Stdlib.min n (!pos + 5);
              Buffer.add_char b '?';
              loop ()
          | Some c -> Buffer.add_char b c; advance (); loop ()
          | None -> fail "bad escape")
      | Some c ->
          Buffer.add_char b c;
          advance ();
          loop ()
    in
    loop ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((key, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((key, v) :: acc))
            | _ -> fail "expected , or }"
          in
          members []
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          elems []
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "empty input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member key = function
  | Obj kv -> (
      match List.assoc_opt key kv with
      | Some v -> v
      | None -> Alcotest.failf "JSON object missing key %S" key)
  | _ -> Alcotest.failf "expected JSON object looking up %S" key

let to_int = function
  | Num f -> int_of_float f
  | _ -> Alcotest.fail "expected JSON number"

let to_num = function
  | Num f -> f
  | _ -> Alcotest.fail "expected JSON number"

let to_str = function
  | Str s -> s
  | _ -> Alcotest.fail "expected JSON string"

(* The status listing ([?json]) is one flat object keyed as /metrics
   spells each series. *)
let row j ?(labels = []) name = member (Obs.Exposition.key name labels) j

let has_row j ?(labels = []) name =
  match j with
  | Obj kv -> List.mem_assoc (Obs.Exposition.key name labels) kv
  | _ -> Alcotest.fail "status listing is not an object"

(* Every row of series [name] as (labels, value), in listing order — an
   unlabelled aggregate before its shards' rows. *)
let rows j name =
  match j with
  | Obj kv ->
      List.filter_map
        (fun (k, v) ->
          match Obs.Exposition.parse_sample (k ^ " 0") with
          | Some s when s.Obs.Exposition.s_name = name ->
              Some (s.Obs.Exposition.s_labels, to_num v)
          | _ -> None)
        kv
  | _ -> Alcotest.fail "status listing is not an object"

(* A label of [flash_config_info]: how the listing carries mode, backend
   and send path. *)
let config j label =
  match rows j "flash_config_info" with
  | (labels, _) :: _ -> (
      match List.assoc_opt label labels with
      | Some v -> v
      | None -> Alcotest.failf "flash_config_info has no %s label" label)
  | [] -> Alcotest.fail "status listing has no flash_config_info"

(* ------------------------------------------------------------------ *)
(* Harness                                                             *)
(* ------------------------------------------------------------------ *)

let with_config config f =
  let server = Server.start_background config in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () -> f server (Server.port server))

let with_mode mode f =
  let docroot = Test_live.make_docroot () in
  with_config { (Server.default_config ~docroot) with Server.mode } f

let get port path = Client.get ~host:"127.0.0.1" ~port path

(* Poll until [pred (stats server)] holds — MP consolidation and MT
   request accounting happen just after the response bytes go out, so
   the client can observe the response before the counters move. *)
let await_stats ?(tries = 60) server pred =
  let rec loop tries =
    let stats = Server.stats server in
    if pred stats || tries = 0 then stats
    else begin
      Thread.delay 0.05;
      loop (tries - 1)
    end
  in
  loop tries

let get_status_json port =
  let r = get port "/server-status?json" in
  Alcotest.(check int) "status endpoint 200" 200 r.Client.status;
  Alcotest.(check (option string))
    "content type" (Some "application/json")
    (List.assoc_opt "content-type" r.Client.headers);
  parse_json r.Client.body

(* ------------------------------------------------------------------ *)
(* /server-status across the four architectures                        *)
(* ------------------------------------------------------------------ *)

(* Event loop modes render status inside the loop with full visibility
   of the counters: the JSON must agree exactly with [stats]. *)
let test_status_event_loop mode () =
  with_mode mode (fun server port ->
      ignore (get port "/hello.txt");
      ignore (get port "/hello.txt");
      ignore (get port "/index.html");
      let j = get_status_json port in
      Alcotest.(check string)
        "mode"
        (match mode with Server.Sped -> "sped" | _ -> "amped")
        (config j "mode");
      (* The status request increments the counter before rendering, so
         the JSON includes itself. *)
      let count name = to_int (row j name) in
      Alcotest.(check int) "requests" 4 (count "flash_http_requests_total");
      Alcotest.(check int) "connections" 4 (count "flash_connections_total");
      Alcotest.(check int) "errors" 0 (count "flash_http_errors_total");
      let file name = to_int (row j ~labels:[ ("cache", "file") ] name) in
      Alcotest.(check bool) "cache hits" true (file "flash_cache_hits_total" >= 1);
      Alcotest.(check bool) "cache misses" true
        (file "flash_cache_misses_total" >= 2);
      Alcotest.(check string) "file cache policy" "gdsf"
        (config j "cache_policy");
      Alcotest.(check string) "file cache admission" "always"
        (config j "cache_admission");
      Alcotest.(check int) "no evictions yet" 0
        (file "flash_cache_evictions_total");
      (* Latency histogram covers the three file requests (the status
         request's own latency is recorded after rendering). *)
      Alcotest.(check int) "latency samples" 3
        (count "flash_request_duration_seconds_count");
      Alcotest.(check bool) "p99 sane" true
        (to_num
           (row j
              ~labels:[ ("quantile", "0.99") ]
              "flash_request_duration_seconds")
        >= 0.);
      Alcotest.(check bool) "loop wakeups" true
        (count "flash_loop_wakeups_total" >= 1);
      (match mode with
      | Server.Amped ->
          Alcotest.(check bool) "helper jobs" true
            (count "flash_helper_jobs_total" >= 1)
      | _ ->
          Alcotest.(check bool) "no helper" false
            (has_row j "flash_helper_jobs_total"));
      (* The JSON agrees with the programmatic stats. *)
      let stats = Server.stats server in
      Alcotest.(check int) "stats.requests matches" stats.Server.requests
        (count "flash_http_requests_total");
      Alcotest.(check int) "stats.connections matches" stats.Server.connections
        (count "flash_connections_total");
      Alcotest.(check int) "stats.cache_hits matches" stats.Server.cache_hits
        (file "flash_cache_hits_total"))

(* Byte figures reach the listing whole: the 32 MiB default capacity
   reads back as the exact integer, not a six-digit rounding. *)
let test_status_numbers_lossless () =
  let docroot = Test_live.make_docroot () in
  let config = Server.default_config ~docroot in
  with_config config (fun _server port ->
      let j = get_status_json port in
      Alcotest.(check (float 0.))
        "capacity exact"
        (float_of_int config.Server.file_cache_bytes)
        (to_num
           (row j ~labels:[ ("cache", "file") ] "flash_cache_capacity_bytes")))

(* MT: worker threads share the parent's counters; the request event is
   recorded just after the response is written, so the JSON may lag by
   the in-flight status request. *)
let test_status_mt () =
  with_mode (Server.Mt 2) (fun server port ->
      ignore (get port "/hello.txt");
      ignore (get port "/hello.txt");
      let j = get_status_json port in
      Alcotest.(check string) "mode" "mt:2" (config j "mode");
      let json_requests = to_int (row j "flash_http_requests_total") in
      Alcotest.(check bool) "json sees prior requests" true (json_requests >= 2);
      let stats = await_stats server (fun s -> s.Server.requests >= 3) in
      Alcotest.(check int) "all requests counted" 3 stats.Server.requests;
      Alcotest.(check bool) "json within one of stats" true
        (stats.Server.requests - json_requests <= 1))

(* MP: children count copy-on-write and report their walks to the
   parent over their pipes (§4.2) — the parent's [stats] must
   consolidate every child's requests. *)
let test_status_mp () =
  with_mode (Server.Mp 2) (fun server port ->
      ignore (get port "/hello.txt");
      ignore (get port "/index.html");
      let j = get_status_json port in
      Alcotest.(check string) "mode" "mp:2" (config j "mode");
      Alcotest.(check bool) "JSON well-formed" true
        (to_int (row j "flash_http_requests_total") >= 0);
      let stats = await_stats server (fun s -> s.Server.requests >= 3) in
      Alcotest.(check int) "parent consolidated over pipe" 3
        stats.Server.requests;
      let lat = Server.latency server in
      Alcotest.(check bool) "latency consolidated over pipe" true
        (Obs.Histogram.count lat >= 3))

(* The text page is the same listing as [key value] lines: each parses
   as an exposition sample. *)
let test_status_text () =
  with_mode Server.Amped (fun _server port ->
      ignore (get port "/hello.txt");
      let r = get port "/server-status" in
      Alcotest.(check int) "200" 200 r.Client.status;
      Alcotest.(check (option string))
        "plain text" (Some "text/plain")
        (List.assoc_opt "content-type" r.Client.headers);
      let lines =
        List.filter (( <> ) "") (String.split_on_char '\n' r.Client.body)
      in
      List.iter
        (fun line ->
          if Obs.Exposition.parse_sample line = None then
            Alcotest.failf "status line %S is not [key value]" line)
        lines;
      Alcotest.(check bool) "config line" true
        (Helpers.contains ~affix:"flash_config_info{" r.Client.body);
      Alcotest.(check bool) "latency line" true
        (Helpers.contains ~affix:"\nflash_request_duration_seconds_count "
           r.Client.body))

(* ------------------------------------------------------------------ *)
(* Path-resolution isolation of the endpoint                           *)
(* ------------------------------------------------------------------ *)

(* The endpoint is matched on the raw request path before docroot
   resolution: a docroot file with the same name is shadowed while the
   endpoint is enabled and served normally when it is disabled. *)
let test_status_shadows_docroot_file () =
  let docroot = Test_live.make_docroot () in
  Test_live.write_file (Filename.concat docroot "server-status") "DECOY";
  with_config (Server.default_config ~docroot) (fun _server port ->
      let r = get port "/server-status" in
      Alcotest.(check bool) "endpoint wins" true
        (Helpers.contains ~affix:"flash_config_info{" r.Client.body);
      Alcotest.(check bool) "decoy not served" false
        (Helpers.contains ~affix:"DECOY" r.Client.body);
      (* Traversal cannot reach the endpoint by another spelling. *)
      let r403 = get port "/../server-status" in
      Alcotest.(check int) "escape still 403" 403 r403.Client.status)

let test_status_disabled_serves_docroot () =
  let docroot = Test_live.make_docroot () in
  Test_live.write_file (Filename.concat docroot "server-status") "DECOY";
  with_config
    { (Server.default_config ~docroot) with Server.status_path = None }
    (fun _server port ->
      let r = get port "/server-status" in
      Alcotest.(check int) "200" 200 r.Client.status;
      Alcotest.(check string) "docroot file served" "DECOY" r.Client.body)

let test_status_custom_path () =
  let docroot = Test_live.make_docroot () in
  with_config
    {
      (Server.default_config ~docroot) with
      Server.status_path = Some "/_flash/metrics";
    }
    (fun _server port ->
      let r = get port "/_flash/metrics?json" in
      Alcotest.(check int) "custom path serves status" 200 r.Client.status;
      ignore (parse_json r.Client.body);
      let r404 = get port "/server-status" in
      Alcotest.(check int) "default path is plain 404 now" 404
        r404.Client.status)

let test_status_not_in_access_log () =
  let docroot = Test_live.make_docroot () in
  let log = Filename.temp_file "flash_access" ".log" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove log with Sys_error _ -> ())
    (fun () ->
      with_config
        { (Server.default_config ~docroot) with Server.access_log = Some log }
        (fun _server port ->
          ignore (get port "/hello.txt");
          ignore (get port "/server-status");
          ignore (get port "/server-status?json");
          ignore (get port "/hello.txt"));
      let ic = open_in log in
      let len = in_channel_length ic in
      let contents = really_input_string ic len in
      close_in ic;
      Alcotest.(check bool) "real traffic logged" true
        (Helpers.contains ~affix:"/hello.txt" contents);
      Alcotest.(check bool) "status requests excluded" false
        (Helpers.contains ~affix:"server-status" contents))

(* ------------------------------------------------------------------ *)
(* Loop stalls separate the architectures (§3.3)                      *)
(* ------------------------------------------------------------------ *)

(* Identical traffic, identical injected disk slowness; only the mode
   differs.  SPED does the cold read inline and the loop stalls; AMPED
   ships it to a helper and the loop keeps spinning. *)
let stall_config ~docroot mode =
  {
    (Server.default_config ~docroot) with
    Server.mode;
    stall_threshold = 0.1;
    slow_read = Some (fun _path -> Thread.delay 0.3);
  }

let test_sped_stalls_on_cold_read () =
  let docroot = Test_live.make_docroot () in
  with_config (stall_config ~docroot Server.Sped) (fun server port ->
      let r = get port "/hello.txt" in
      Alcotest.(check int) "served despite the stall" 200 r.Client.status;
      let stats = Server.stats server in
      Alcotest.(check bool) "loop stalled" true (stats.Server.loop_stalls >= 1);
      Alcotest.(check bool) "stall spans the injected delay" true
        (stats.Server.loop_max_stall >= 0.25))

(* MT: each worker's turns are its own.  One worker blocks 300 ms on a
   slow read of [slow.bin] while the other keeps serving a keep-alive
   connection; the blocked worker's turn counts as a stall however busy
   its sibling is. *)
let test_mt_worker_stalls () =
  let docroot = Test_live.make_docroot () in
  Test_live.write_file (Filename.concat docroot "slow.bin") "slow";
  let config =
    {
      (Server.default_config ~docroot) with
      Server.mode = Server.Mt 2;
      stall_threshold = 0.1;
      slow_read =
        Some
          (fun path ->
            if Filename.basename path = "slow.bin" then Thread.delay 0.3);
    }
  in
  with_config config (fun server port ->
      let session = Client.Session.connect ~host:"127.0.0.1" ~port () in
      Fun.protect
        ~finally:(fun () -> Client.Session.close session)
        (fun () ->
          let fast () =
            let r = Client.Session.request session "/hello.txt" in
            Alcotest.(check int) "the other worker serves" 200 r.Client.status
          in
          fast ();
          let slow_status = ref 0 in
          let slow =
            Thread.create
              (fun () -> slow_status := (get port "/slow.bin").Client.status)
              ()
          in
          let until = Unix.gettimeofday () +. 0.4 in
          while Unix.gettimeofday () < until do
            fast ()
          done;
          Thread.join slow;
          Alcotest.(check int) "slow file served" 200 !slow_status;
          let stats =
            await_stats server (fun s ->
                s.Server.loop_stalls >= 1 && s.Server.loop_max_stall >= 0.25)
          in
          Alcotest.(check bool) "blocked worker stalled" true
            (stats.Server.loop_stalls >= 1);
          Alcotest.(check bool) "stall spans the injected delay" true
            (stats.Server.loop_max_stall >= 0.25)))

let test_amped_does_not_stall () =
  let docroot = Test_live.make_docroot () in
  with_config (stall_config ~docroot Server.Amped) (fun server port ->
      let r = get port "/hello.txt" in
      Alcotest.(check int) "served" 200 r.Client.status;
      let stats = Server.stats server in
      (* The same 300 ms of disk slowness happened — but in a helper. *)
      Alcotest.(check int) "loop never stalled" 0 stats.Server.loop_stalls;
      Alcotest.(check bool) "helper did the slow work" true
        (stats.Server.helper_jobs >= 1);
      match Server.helper_job_latency server with
      | None -> Alcotest.fail "AMPED should expose helper job latency"
      | Some h ->
          Alcotest.(check bool) "job latency spans the injected delay" true
            (Obs.Histogram.max h >= 0.25))

(* ------------------------------------------------------------------ *)
(* Keep-alive idle timeout accounting                                  *)
(* ------------------------------------------------------------------ *)

let test_idle_timeout_closes_and_accounts () =
  let docroot = Test_live.make_docroot () in
  with_config
    { (Server.default_config ~docroot) with Server.idle_timeout = 0.3 }
    (fun server port ->
      let session = Client.Session.connect ~host:"127.0.0.1" ~port () in
      let r = Client.Session.request session "/hello.txt" in
      Alcotest.(check int) "first request ok" 200 r.Client.status;
      let live = Server.stats server in
      Alcotest.(check int) "connection active" 1 live.Server.active_connections;
      (* The sweep runs each loop iteration (select wakes at least every
         0.5 s), so the idle connection must be reaped shortly after the
         timeout. *)
      let stats =
        await_stats ~tries:80 server (fun s -> s.Server.active_connections = 0)
      in
      Alcotest.(check int) "idle connection reaped" 0
        stats.Server.active_connections;
      Alcotest.(check int) "still one connection total" 1
        stats.Server.connections;
      Alcotest.(check int) "still one request" 1 stats.Server.requests;
      (* The socket really was closed server-side. *)
      (match Client.Session.request session "/hello.txt" with
      | _ -> Alcotest.fail "request on a reaped connection should fail"
      | exception _ -> ());
      Client.Session.close session;
      (* A fresh connection works and the accounting keeps going. *)
      let r2 = get port "/hello.txt" in
      Alcotest.(check int) "server still serving" 200 r2.Client.status;
      let stats2 = Server.stats server in
      Alcotest.(check int) "second connection counted" 2
        stats2.Server.connections)

(* An idle keep-alive connection holds no read buffer of its own:
   reads land in its loop's scratch, so 200 idle connections cost well
   under 1,000 major-heap words each (a 64 KB buffer apiece is 8,193). *)
let test_idle_connection_heap () =
  let docroot = Test_live.make_docroot () in
  with_config (Server.default_config ~docroot) (fun server port ->
      let n = 200 in
      let heap () =
        Gc.full_major ();
        (Gc.quick_stat ()).Gc.heap_words
      in
      let before = heap () in
      let socks =
        List.init n (fun _ ->
            let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
            s)
      in
      Fun.protect
        ~finally:(fun () -> List.iter Unix.close socks)
        (fun () ->
          let stats =
            await_stats ~tries:100 server (fun s ->
                s.Server.active_connections = n)
          in
          Alcotest.(check int) "all connections open" n
            stats.Server.active_connections;
          let per_conn = (heap () - before) / n in
          if per_conn >= 1000 then
            Alcotest.failf "%d major-heap words per idle connection" per_conn))

(* Per-request latency lands in the histogram in every mode. *)
let test_latency_recorded mode () =
  with_mode mode (fun server port ->
      ignore (get port "/hello.txt");
      ignore (get port "/hello.txt");
      let rec await tries =
        if Obs.Histogram.count (Server.latency server) >= 2 || tries = 0 then ()
        else begin
          Thread.delay 0.05;
          await (tries - 1)
        end
      in
      await 40;
      let lat = Server.latency server in
      Alcotest.(check int) "two samples" 2 (Obs.Histogram.count lat);
      Alcotest.(check bool) "latencies positive" true (Obs.Histogram.min lat >= 0.))

let suite =
  [
    Alcotest.test_case "AMPED /server-status JSON" `Quick
      (test_status_event_loop Server.Amped);
    Alcotest.test_case "SPED /server-status JSON" `Quick
      (test_status_event_loop Server.Sped);
    Alcotest.test_case "MT /server-status JSON" `Quick test_status_mt;
    Alcotest.test_case "MP /server-status JSON" `Quick test_status_mp;
    Alcotest.test_case "text status" `Quick test_status_text;
    Alcotest.test_case "status numbers are lossless" `Quick
      test_status_numbers_lossless;
    Alcotest.test_case "endpoint shadows docroot file" `Quick
      test_status_shadows_docroot_file;
    Alcotest.test_case "disabled endpoint serves docroot" `Quick
      test_status_disabled_serves_docroot;
    Alcotest.test_case "custom status path" `Quick test_status_custom_path;
    Alcotest.test_case "status excluded from access log" `Quick
      test_status_not_in_access_log;
    Alcotest.test_case "SPED stalls on cold read" `Quick
      test_sped_stalls_on_cold_read;
    Alcotest.test_case "AMPED does not stall" `Quick test_amped_does_not_stall;
    Alcotest.test_case "MT counts its blocked worker's stall" `Quick
      test_mt_worker_stalls;
    Alcotest.test_case "idle connection holds no read buffer" `Quick
      test_idle_connection_heap;
    Alcotest.test_case "idle timeout reaps and accounts" `Quick
      test_idle_timeout_closes_and_accounts;
    Alcotest.test_case "latency recorded (AMPED)" `Quick
      (test_latency_recorded Server.Amped);
    Alcotest.test_case "latency recorded (SPED)" `Quick
      (test_latency_recorded Server.Sped);
    Alcotest.test_case "latency recorded (MT)" `Quick
      (test_latency_recorded (Server.Mt 2));
    Alcotest.test_case "latency recorded (MP)" `Quick
      (test_latency_recorded (Server.Mp 2));
  ]
