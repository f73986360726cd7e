(* flash-bench: a small httperf-style load generator for the live server
   (and any HTTP/1.x server): N closed-loop client threads, reporting
   throughput and response-time percentiles.  Latencies go into the same
   log-bucketed histogram the server's /server-status reports
   (Obs.Histogram), one per worker, merged at the end.

     dune exec bin/flash_serve.exe -- --docroot ./site --port 8080 &
     dune exec bin/flash_bench.exe -- --host 127.0.0.1 --port 8080 \
       --path /index.html --clients 16 --duration 5 --keep-alive *)

open Cmdliner

type worker_stats = {
  mutable completed : int;
  mutable errors : int;
  mutable bytes : int;
  latencies : Obs.Histogram.t;  (* seconds; merged across workers *)
}

let new_stats () =
  { completed = 0; errors = 0; bytes = 0; latencies = Obs.Histogram.create () }

let record stats latency bytes ok =
  if ok then begin
    stats.completed <- stats.completed + 1;
    stats.bytes <- stats.bytes + bytes;
    Obs.Histogram.record stats.latencies latency
  end
  else stats.errors <- stats.errors + 1

let worker ~host ~port ~path ~headers ~expect ~keep_alive ~deadline stats () =
  let run_one_keepalive () =
    let session = Flash_live.Client.Session.connect ~host ~port () in
    Fun.protect
      ~finally:(fun () -> Flash_live.Client.Session.close session)
      (fun () ->
        while Unix.gettimeofday () < deadline do
          let t0 = Unix.gettimeofday () in
          match Flash_live.Client.Session.request ~headers session path with
          | r ->
              record stats
                (Unix.gettimeofday () -. t0)
                (String.length r.Flash_live.Client.body)
                (r.Flash_live.Client.status = expect)
          | exception _ -> raise Exit
        done)
  in
  let run_one_conn_per_request () =
    while Unix.gettimeofday () < deadline do
      let t0 = Unix.gettimeofday () in
      match Flash_live.Client.get ~headers ~host ~port path with
      | r ->
          record stats
            (Unix.gettimeofday () -. t0)
            (String.length r.Flash_live.Client.body)
            (r.Flash_live.Client.status = expect)
      | exception _ -> stats.errors <- stats.errors + 1
    done
  in
  try if keep_alive then run_one_keepalive () else run_one_conn_per_request ()
  with Exit | _ -> ()

(* Workload scenarios over the HTTP/1.1 semantics: [full] is the plain
   200 baseline; [conditional] revalidates with the representation's
   own ETag on every request (the steady state of a client population
   with warm caches — all 304s, no body bytes); [range] asks for the
   first KiB of the target (the resumed-download shape — all 206s). *)
let scenario_setup ~host ~port ~path = function
  | "full" -> ([], 200)
  | "conditional" -> (
      (* Learn the current validator once, then revalidate with it. *)
      match Flash_live.Client.get ~host ~port path with
      | { Flash_live.Client.status = 200; headers; _ } -> (
          match List.assoc_opt "etag" headers with
          | Some etag -> ([ ("If-None-Match", etag) ], 304)
          | None ->
              Format.eprintf "conditional scenario: no ETag on %s@." path;
              exit 2)
      | r ->
          Format.eprintf "conditional scenario: prefetch got %d@."
            r.Flash_live.Client.status;
          exit 2
      | exception e ->
          Format.eprintf "conditional scenario: prefetch failed (%s)@."
            (Printexc.to_string e);
          exit 2)
  | "range" -> ([ ("Range", "bytes=0-1023") ], 206)
  | other ->
      Format.eprintf "unknown scenario %S (full|conditional|range)@." other;
      exit 2

(* Server-side send-path efficiency, measured by scraping the server's
   status listing before and after the run and differencing its
   counters.  The scrapes themselves are requests, so the figures carry
   ±1-request noise — irrelevant at benchmark volumes. *)
type server_delta = {
  backend : string;  (* readiness backend ("select" | "poll" | "epoll") *)
  server_requests : int;
  syscalls_per_request : float;  (* writev calls / request *)
  copies_per_request : float;  (* userspace-copied bytes / request *)
  wakeups : int;  (* loop wakeups during the run *)
  wakeups_per_request : float;
      (* loop wakeups / request — the figure idle connections inflate
         on select/poll (every idle fd is re-scanned each wakeup) but
         not on epoll (kernel-held interest, O(ready) wakeups) *)
}

(* The status page lists one series per line, keyed as /metrics spells
   it and each key once, so every line reads back as an exposition
   sample.  An unreachable page lists nothing. *)
let scrape_status ~host ~port status_path =
  match Flash_live.Client.get ~host ~port status_path with
  | r when r.Flash_live.Client.status = 200 ->
      List.filter_map Obs.Exposition.parse_sample
        (String.split_on_char '\n' r.Flash_live.Client.body)
  | _ -> []
  | exception _ -> []

(* The one lookup: the first series named [name] whose labels include
   [labels].  The listing sorts by name then labels, so an unlabelled
   aggregate precedes its shards' series. *)
let lookup listing ?(labels = []) name =
  List.find_opt
    (fun (s : Obs.Exposition.series) ->
      s.Obs.Exposition.s_name = name
      && List.for_all (fun l -> List.mem l s.Obs.Exposition.s_labels) labels)
    listing

(* A series' value, or 0 when the server lists none (it counted nothing). *)
let value listing ?labels name =
  match lookup listing ?labels name with
  | Some s -> s.Obs.Exposition.s_value
  | None -> 0.

(* The flight-recorder time series for the run: scrape
   [?window=N] after the workers finish and extract the rollup array —
   per-second req/s, hit rate and windowed percentiles for the JSON
   artifact. *)
let scrape_timeseries ~host ~port status_path n =
  match
    Flash_live.Client.get ~host ~port
      (Printf.sprintf "%s?window=%d" status_path n)
  with
  | r when r.Flash_live.Client.status = 200 -> (
      let body = r.Flash_live.Client.body in
      match (String.index_opt body '[', String.rindex_opt body ']') with
      | Some i, Some j when j >= i -> Some (String.sub body i (j - i + 1))
      | _ -> None)
  | _ -> None
  | exception _ -> None

let server_delta before after =
  let d name = value after name -. value before name in
  let dreq = d "flash_http_requests_total" in
  if before = [] || dreq <= 0. then None
  else
    let dwake = d "flash_loop_wakeups_total" in
    let config label =
      Option.bind (lookup after "flash_config_info") (fun s ->
          List.assoc_opt label s.Obs.Exposition.s_labels)
      |> Option.value ~default:"unknown"
    in
    Some
      {
        backend = config "backend";
        server_requests = int_of_float dreq;
        syscalls_per_request = d "flash_writev_calls_total" /. dreq;
        copies_per_request = d "flash_bytes_copied_total" /. dreq;
        wakeups = int_of_float dwake;
        wakeups_per_request = dwake /. dreq;
      }

(* Machine-readable results, for CI artifacts and regression tracking.
   Same numbers the human-readable report prints. *)
let write_json ~file ~scenario ~completed ~errors ~bytes ~elapsed
    ~idle_connections ~client_workers ~server ~timeseries latency =
  let num f = if Float.is_finite f then Printf.sprintf "%.6g" f else "0" in
  let ms x = num (1000. *. x) in
  let pct p = ms (Obs.Histogram.percentile latency p) in
  let server_json =
    match server with
    | None -> "null"
    | Some d ->
        Printf.sprintf
          {|{"backend":%S,"requests":%d,"syscalls_per_request":%s,"copies_per_request":%s,"wakeups":%d,"wakeups_per_request":%s}|}
          d.backend d.server_requests
          (num d.syscalls_per_request)
          (num d.copies_per_request)
          d.wakeups
          (num d.wakeups_per_request)
  in
  let body =
    Printf.sprintf
      {|{"scenario":%S,"completed":%d,"errors":%d,"elapsed_s":%s,"idle_connections":%d,"client_workers":%d,"throughput_rps":%s,"throughput_mbps":%s,"latency_ms":{"mean":%s,"p50":%s,"p90":%s,"p99":%s,"max":%s,"samples":%d},"server":%s,"timeseries":%s}|}
      scenario completed errors (num elapsed) idle_connections client_workers
      (num (float_of_int completed /. elapsed))
      (num (float_of_int bytes *. 8. /. elapsed /. 1e6))
      (ms (Obs.Histogram.mean latency))
      (pct 50.) (pct 90.) (pct 99.)
      (ms (Obs.Histogram.max latency))
      (Obs.Histogram.count latency)
      server_json
      (Option.value timeseries ~default:"[]")
    ^ "\n"
  in
  let oc = open_out file in
  output_string oc body;
  close_out oc

(* Many-idle-connections scenario: open N keep-alive sessions, warm
   each with one request, then leave them idle for the whole run while
   the active clients drive load.  What this measures is the cost of
   {e carrying} idle watched fds: select/poll re-scan every one of them
   on each wakeup, epoll's wait stays O(ready). *)
let open_idle_connections ~host ~port ~path n =
  let rec go acc i =
    if i >= n then acc
    else
      match Flash_live.Client.Session.connect ~host ~port () with
      | session -> (
          match Flash_live.Client.Session.request session path with
          | _ -> go (session :: acc) (i + 1)
          | exception _ ->
              Flash_live.Client.Session.close session;
              acc)
      | exception _ -> acc
  in
  go [] 0

(* Run [clients] closed-loop clients for [duration] seconds and return
   their stats plus the wall time.  With [client_workers] > 1 the
   clients are spread over that many OCaml domains: all systhreads of
   one domain share a single runtime lock, which caps a one-domain
   generator well below what a multi-domain (sharded) server can
   absorb, so measuring server scaling needs a generator that scales
   too. *)
let drive_load ~host ~port ~path ~headers ~expect ~keep_alive ~duration
    ~clients ~client_workers =
  let deadline = Unix.gettimeofday () +. duration in
  let stats = Array.init clients (fun _ -> new_stats ()) in
  let run_slice lo hi =
    let threads = ref [] in
    for i = lo to hi - 1 do
      threads :=
        Thread.create
          (worker ~host ~port ~path ~headers ~expect ~keep_alive ~deadline
             stats.(i))
          ()
        :: !threads
    done;
    List.iter Thread.join !threads
  in
  let workers = max 1 (min client_workers clients) in
  let t0 = Unix.gettimeofday () in
  if workers = 1 then run_slice 0 clients
  else begin
    let per = clients / workers and extra = clients mod workers in
    let domains =
      List.init workers (fun w ->
          let lo = (w * per) + min w extra in
          let hi = lo + per + if w < extra then 1 else 0 in
          Domain.spawn (fun () -> run_slice lo hi))
    in
    List.iter Domain.join domains
  end;
  (Array.to_list stats, Unix.gettimeofday () -. t0)

let run host port path clients client_workers duration keep_alive scenario
    idle_connections json_file status_path =
  Format.printf
    "flash-bench: %d clients (%d worker domains) -> http://%s:%d%s for %.1fs \
     (%s, %s scenario)@."
    clients
    (max 1 (min client_workers clients))
    host port path duration
    (if keep_alive then "keep-alive" else "connection per request")
    scenario;
  let headers, expect = scenario_setup ~host ~port ~path scenario in
  let idle_sessions =
    if idle_connections <= 0 then []
    else begin
      let sessions = open_idle_connections ~host ~port ~path idle_connections in
      Format.printf "idle:       holding %d warm keep-alive connections@."
        (List.length sessions);
      sessions
    end
  in
  let scrape () = scrape_status ~host ~port status_path in
  let before = scrape () in
  let stats, elapsed =
    drive_load ~host ~port ~path ~headers ~expect ~keep_alive ~duration
      ~clients ~client_workers
  in
  let server = server_delta before (scrape ()) in
  let timeseries =
    scrape_timeseries ~host ~port status_path
      (int_of_float (Float.ceil elapsed) + 2)
  in
  List.iter Flash_live.Client.Session.close idle_sessions;
  let completed = List.fold_left (fun acc s -> acc + s.completed) 0 stats in
  let errors = List.fold_left (fun acc s -> acc + s.errors) 0 stats in
  let bytes = List.fold_left (fun acc s -> acc + s.bytes) 0 stats in
  let latency =
    List.fold_left
      (fun acc s -> Obs.Histogram.merge acc s.latencies)
      (Obs.Histogram.create ()) stats
  in
  Format.printf "requests:   %d ok, %d errors in %.2fs@." completed errors elapsed;
  Format.printf "throughput: %.1f req/s, %.2f Mb/s (body bytes)@."
    (float_of_int completed /. elapsed)
    (float_of_int bytes *. 8. /. elapsed /. 1e6);
  if Obs.Histogram.count latency > 0 then begin
    let ms p = 1000. *. Obs.Histogram.percentile latency p in
    Format.printf
      "latency:    mean %.2f ms, p50 %.2f ms, p90 %.2f ms, p99 %.2f ms, max %.2f ms (%d samples)@."
      (1000. *. Obs.Histogram.mean latency)
      (ms 50.) (ms 90.) (ms 99.)
      (1000. *. Obs.Histogram.max latency)
      (Obs.Histogram.count latency)
  end;
  (match server with
  | Some d ->
      Format.printf
        "server:     %.2f syscalls/req, %.1f bytes copied/req (%d requests)@."
        d.syscalls_per_request d.copies_per_request
        d.server_requests;
      Format.printf
        "loop:       %s backend, %d wakeups (%.2f wakeups/req)@." d.backend
        d.wakeups d.wakeups_per_request
  | None -> Format.printf "server:     status endpoint not available@.");
  (match timeseries with
  | Some ts ->
      let rollups =
        (* Each rollup is one flat object in the array, so count the
           braces outside string literals: labelled keys such as
           [flash_cache_hits_total{cache="file"}] hold braces too. *)
        let _, _, n =
          String.fold_left
            (fun (in_str, escaped, n) c ->
              if escaped then (in_str, false, n)
              else if in_str then (c <> '"', c = '\\', n)
              else (c = '"', false, if c = '{' then n + 1 else n))
            (false, false, 0) ts
        in
        n
      in
      Format.printf "recorder:   %d rollups captured@." rollups
  | None -> ());
  (match json_file with
  | Some file ->
      write_json ~file ~scenario ~completed ~errors ~bytes ~elapsed
        ~idle_connections:(List.length idle_sessions)
        ~client_workers:(max 1 (min client_workers clients))
        ~server ~timeseries latency;
      Format.printf "json:       wrote %s@." file
  | None -> ());
  if errors > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Domain-scaling sweep: start an in-process [Sharded d] server for
   d = 1..N, drive the same closed-loop load at each, and emit the
   scaling curve (req/s per domain count, plus each shard's share of
   the requests, scraped from the status page's shard-labelled rows).  *)
(* ------------------------------------------------------------------ *)

type sweep_point = {
  domains : int;
  point_ok : int;
  point_errors : int;
  elapsed : float;
  rps : float;
  per_shard : int list;
}

let run_sweep ~docroot ~backend ~max_domains ~path ~clients ~client_workers
    ~duration ~keep_alive ~json_file =
  let module Server = Flash_live.Server in
  let workers = max 1 (min client_workers clients) in
  Format.printf
    "flash-bench: domain sweep 1..%d (%s backend, %d clients x %d worker \
     domains, %.1fs per point, %s)@."
    max_domains (Evio.name backend) clients workers duration
    (if keep_alive then "keep-alive" else "connection per request");
  let bench_point domains =
    let config =
      {
        (Server.default_config ~docroot) with
        Server.mode = Server.Sharded domains;
        port = 0;
        event_backend = backend;
      }
    in
    let server = Server.start_background config in
    Fun.protect
      ~finally:(fun () -> Server.stop server)
      (fun () ->
        let host = "127.0.0.1" and port = Server.port server in
        (* one warm-up request so every point starts with a primed
           cache rather than charging the first point the misses *)
        (try ignore (Flash_live.Client.get ~host ~port path)
         with _ -> ());
        let stats, elapsed =
          drive_load ~host ~port ~path ~headers:[] ~expect:200 ~keep_alive
            ~duration ~clients ~client_workers
        in
        let point_ok = List.fold_left (fun a s -> a + s.completed) 0 stats in
        let point_errors = List.fold_left (fun a s -> a + s.errors) 0 stats in
        let listing = scrape_status ~host ~port "/server-status" in
        let per_shard =
          List.init domains (fun i ->
              int_of_float
                (value listing
                   ~labels:[ ("shard", string_of_int i) ]
                   "flash_http_requests_total"))
        in
        let rps = float_of_int point_ok /. elapsed in
        Format.printf
          "domains %d:  %8.1f req/s  (%d ok, %d errors; shard requests: %s)@."
          domains rps point_ok point_errors
          (String.concat "/" (List.map string_of_int per_shard));
        { domains; point_ok; point_errors; elapsed; rps; per_shard })
  in
  let points = List.init max_domains (fun i -> bench_point (i + 1)) in
  let base_rps =
    match points with p :: _ -> p.rps | [] -> 0.
  in
  List.iter
    (fun p ->
      if p.domains > 1 && base_rps > 0. then
        Format.printf "speedup:    %d domains = %.2fx over 1@." p.domains
          (p.rps /. base_rps))
    points;
  (match json_file with
  | Some file ->
      let num f = if Float.is_finite f then Printf.sprintf "%.6g" f else "0" in
      let point_json p =
        Printf.sprintf
          {|{"domains":%d,"completed":%d,"errors":%d,"elapsed_s":%s,"throughput_rps":%s,"speedup_vs_1":%s,"per_shard_requests":[%s]}|}
          p.domains p.point_ok p.point_errors (num p.elapsed) (num p.rps)
          (num (if base_rps > 0. then p.rps /. base_rps else 0.))
          (String.concat "," (List.map string_of_int p.per_shard))
      in
      let body =
        Printf.sprintf
          {|{"sweep":"domains","backend":%S,"path":%S,"clients":%d,"client_workers":%d,"duration_s":%s,"keep_alive":%b,"cores":%d,"points":[%s]}|}
          (Evio.name backend) path clients workers (num duration) keep_alive
          (Domain.recommended_domain_count ())
          (String.concat "," (List.map point_json points))
        ^ "\n"
      in
      let oc = open_out file in
      output_string oc body;
      close_out oc;
      Format.printf "json:       wrote %s@." file
  | None -> ());
  if List.exists (fun p -> p.point_errors > 0) points then exit 1

(* ------------------------------------------------------------------ *)
(* Hostile scenarios: overload survival, measured.

   Three arms per attack, each against a fresh in-process server:
   baseline (no attack, guard off), unguarded (attack, guard off) and
   guarded (attack, guard configured for that attack).  Legitimate
   clients connect from 127.0.0.1; attackers bind their source to
   127.0.0.2 (any 127/8 address reaches loopback on Linux), so the
   guard's per-IP ledgers can discriminate attacker from victim.  The
   figure of merit is legit goodput relative to the unloaded baseline:
   an effective guard holds it near 1.0 while the unguarded ratio
   collapses.                                                          *)
(* ------------------------------------------------------------------ *)

let attacker_src = "127.0.0.2"

type attacker_stats = {
  mutable opened : int;  (* connects that succeeded *)
  mutable dropped : int;  (* connections the server closed on us *)
  mutable att_ok : int;  (* attacker requests answered 200 *)
  mutable att_refused : int;  (* attacker requests answered 4xx/5xx *)
}

let new_attacker_stats () =
  { opened = 0; dropped = 0; att_ok = 0; att_refused = 0 }

let sum_attacker_stats l =
  List.fold_left
    (fun acc s ->
      {
        opened = acc.opened + s.opened;
        dropped = acc.dropped + s.dropped;
        att_ok = acc.att_ok + s.att_ok;
        att_refused = acc.att_refused + s.att_refused;
      })
    (new_attacker_stats ()) l

let hostile_connect ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string attacker_src, 0))
   with Unix.Unix_error _ -> ());
  match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      None

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Connection flood: fill [slots] with held, silent connections and keep
   them full.  Dead slots (server refused or reaped us) are reopened at
   a bounded rate, so a guarded server pays a steady trickle of cheap
   refusals rather than an accept storm. *)
let flood_thread ~port ~deadline ~slots stats () =
  let conns = Array.make slots None in
  let probe = Bytes.create 64 in
  Array.iteri
    (fun i _ ->
      match hostile_connect ~port with
      | Some fd ->
          Unix.set_nonblock fd;
          stats.opened <- stats.opened + 1;
          conns.(i) <- Some fd
      | None -> ())
    conns;
  while Unix.gettimeofday () < deadline do
    let reopen_budget = ref 30 in
    Array.iteri
      (fun i c ->
        match c with
        | None ->
            if !reopen_budget > 0 then begin
              decr reopen_budget;
              match hostile_connect ~port with
              | Some fd ->
                  Unix.set_nonblock fd;
                  stats.opened <- stats.opened + 1;
                  conns.(i) <- Some fd
              | None -> ()
            end
        | Some fd -> (
            (* Readable EOF (a 429 then close) or a reset means the
               server got rid of us. *)
            match Unix.read fd probe 0 64 with
            | 0 ->
                close_quietly fd;
                stats.dropped <- stats.dropped + 1;
                conns.(i) <- None
            | _ -> ()
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
              ->
                ()
            | exception Unix.Unix_error _ ->
                close_quietly fd;
                stats.dropped <- stats.dropped + 1;
                conns.(i) <- None))
      conns;
    Thread.delay 0.5
  done;
  Array.iter (function Some fd -> close_quietly fd | None -> ()) conns

(* A request head long enough that byte-at-a-time delivery never
   finishes within any realistic run. *)
let slow_request_head =
  "GET /index.html HTTP/1.1\r\nHost: hostile\r\n"
  ^ String.concat ""
      (List.init 400 (fun i -> Printf.sprintf "X-Pad-%04d: aaaaaaaa\r\n" i))
  ^ "\r\n"

(* Slow-read army (slowloris): hold [slots] connections, dribbling one
   header byte per tick on each.  The dribble keeps [last_active]
   fresh, so the idle timer never fires — only a header deadline
   breaks the hold. *)
let slowread_thread ~port ~deadline ~slots stats () =
  let conns = Array.make slots None in
  let fill i =
    match hostile_connect ~port with
    | Some fd ->
        Unix.set_nonblock fd;
        stats.opened <- stats.opened + 1;
        conns.(i) <- Some (fd, ref 0)
    | None -> ()
  in
  Array.iteri (fun i _ -> fill i) conns;
  while Unix.gettimeofday () < deadline do
    let reopen_budget = ref 30 in
    Array.iteri
      (fun i c ->
        match c with
        | None ->
            if !reopen_budget > 0 then begin
              decr reopen_budget;
              fill i
            end
        | Some (fd, pos) -> (
            if !pos >= String.length slow_request_head then pos := 0;
            match Unix.write_substring fd slow_request_head !pos 1 with
            | _ -> incr pos
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
              ->
                ()
            | exception Unix.Unix_error _ ->
                close_quietly fd;
                stats.dropped <- stats.dropped + 1;
                conns.(i) <- None))
      conns;
    Thread.delay 0.15
  done;
  Array.iter (function Some (fd, _) -> close_quietly fd | None -> ()) conns

(* Disk-bound stampede: closed-loop requests for a rotating set of
   cold files, one connection per request, as fast as the server
   answers.  Every hit costs a helper job, so an unbounded queue
   swamps the victims' share of disk service. *)
let stampede_thread ~port ~deadline ~files stats () =
  let buf = Bytes.create 8192 in
  let i = ref 0 in
  while Unix.gettimeofday () < deadline do
    (match hostile_connect ~port with
    | None -> Thread.delay 0.01
    | Some fd ->
        stats.opened <- stats.opened + 1;
        incr i;
        (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0
         with Unix.Unix_error _ | Invalid_argument _ -> ());
        let req =
          Printf.sprintf "GET /f%d.bin HTTP/1.0\r\nHost: hostile\r\n\r\n"
            (!i mod files)
        in
        (match Unix.write_substring fd req 0 (String.length req) with
        | _ -> (
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 -> stats.dropped <- stats.dropped + 1
            | n ->
                let head = Bytes.sub_string buf 0 (min n 12) in
                if String.length head >= 12 && String.sub head 9 3 = "200" then
                  stats.att_ok <- stats.att_ok + 1
                else stats.att_refused <- stats.att_refused + 1;
                (try
                   while Unix.read fd buf 0 (Bytes.length buf) > 0 do
                     ()
                   done
                 with Unix.Unix_error _ -> ())
            | exception Unix.Unix_error _ ->
                stats.dropped <- stats.dropped + 1)
        | exception Unix.Unix_error _ -> stats.dropped <- stats.dropped + 1);
        close_quietly fd);
    Thread.delay 0.005
  done

(* Legitimate load for hostile runs: closed-loop clients that survive
   being shed — a dropped session or refused connect counts an error,
   backs off briefly and retries, so goodput reflects what a victim
   population actually gets through, not how fast the first error
   killed the worker.  Each worker binds its own 127.0.1.x source: a
   victim population is many low-rate IPs, not one hot one, and that
   is precisely the asymmetry per-IP accounting exploits.

   Sessions are keep-alive but rotate every 100 requests: a session
   that got in before the attack established would otherwise sit out
   the connection exhaustion it is supposed to measure, while pure
   connection-per-request drowns the single-core generator in
   handshakes.  Rotation keeps the accept path honest in both arms. *)
let legit_worker ~src ~host ~port ~path ~deadline stats () =
  while Unix.gettimeofday () < deadline do
    match Flash_live.Client.Session.connect ~src ~host ~port () with
    | exception _ ->
        stats.errors <- stats.errors + 1;
        Thread.delay 0.02
    | session ->
        (try
           let n = ref 0 in
           while !n < 100 && Unix.gettimeofday () < deadline do
             incr n;
             let t0 = Unix.gettimeofday () in
             let r = Flash_live.Client.Session.request session path in
             record stats
               (Unix.gettimeofday () -. t0)
               (String.length r.Flash_live.Client.body)
               (r.Flash_live.Client.status = 200)
           done
         with _ -> stats.errors <- stats.errors + 1);
        Flash_live.Client.Session.close session
  done

type hostile_attack = Flood | Slowread | Stampede

let attack_name = function
  | Flood -> "flood"
  | Slowread -> "slowread"
  | Stampede -> "stampede"

let attack_of_string = function
  | "flood" -> Some Flood
  | "slowread" -> Some Slowread
  | "stampede" -> Some Stampede
  | _ -> None

(* A scratch docroot of our own (never the user's): one small page the
   victims hammer, plus a rotating set of larger files the stampede
   keeps cold. *)
let make_hostile_docroot () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "flash-hostile-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let write name n =
    let oc = open_out (Filename.concat dir name) in
    output_string oc (String.make n 'x');
    close_out oc
  in
  write "index.html" 8192;
  for i = 0 to 63 do
    write (Printf.sprintf "f%d.bin" i) 32768
  done;
  dir

let remove_hostile_docroot dir =
  match Sys.readdir dir with
  | entries ->
      Array.iter
        (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
        entries;
      (try Unix.rmdir dir with Unix.Unix_error _ -> ())
  | exception Sys_error _ -> ()

let hostile_server_config ~docroot ~attack ~guarded =
  let module Server = Flash_live.Server in
  let module Guard = Flash_guard.Guard in
  let base =
    {
      (Server.default_config ~docroot) with
      Server.port = 0;
      mode = Server.Amped;
      event_backend = Evio.Select;
      (* Long enough that waiting out the idle timer is not a defense
         within the run — held flood connections must be evicted by
         policy or not at all. *)
      idle_timeout = 60.;
      trace = false;
    }
  in
  let base =
    match attack with
    | Stampede ->
        {
          base with
          Server.max_cached_file = 0 (* every read is cold disk work *);
          helpers = 2;
          slow_read = Some (fun _ -> Thread.delay 0.015);
        }
    | Flood | Slowread -> base
  in
  if not guarded then base
  else
    let g = Guard.default_config in
    let g =
      match attack with
      | Flood -> { g with Guard.max_conns_per_ip = Some 16 }
      | Slowread ->
          {
            g with
            Guard.max_conns_per_ip = Some 64;
            header_deadline = 0.5;
            min_byte_rate = 64.;
            transfer_interval = 0.5;
          }
      | Stampede ->
          (* Above any one victim's demand, far below the attacker's;
             the queue bound is the backstop against whatever the rate
             cap still admits. *)
          {
            g with
            Guard.max_rps_per_ip = Some 20.;
            max_helper_queue = Some 32;
          }
    in
    { base with Server.guard = g }

type hostile_arm = {
  arm_name : string;
  goodput_rps : float;
  legit_ok : int;
  legit_errors : int;
  legit_p99_ms : float;
  arm_shed_total : int;
  arm_sheds : (string * int) list;
  arm_helper_hwm : int;
  arm_helper_rejected : int;
  attacker : attacker_stats option;
}

let run_hostile_arm ~docroot ~attack ~arm_name ~guarded ~with_attack ~duration
    ~clients =
  let module Server = Flash_live.Server in
  let config = hostile_server_config ~docroot ~attack ~guarded in
  let server = Server.start_background config in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let host = "127.0.0.1" and port = Server.port server in
      (try ignore (Flash_live.Client.get ~host ~port "/index.html")
       with _ -> ());
      let establish =
        if not with_attack then 0.
        else match attack with Flood | Slowread -> 2.0 | Stampede -> 0.7
      in
      let legit_deadline = Unix.gettimeofday () +. establish +. duration in
      (* Attackers outlive the victims slightly so goodput is measured
         under pressure end to end. *)
      let attack_deadline = legit_deadline +. 1.0 in
      let attacker_threads, attacker_stats =
        if not with_attack then ([], [])
        else
          let spawn n f =
            List.init n (fun _ ->
                let s = new_attacker_stats () in
                (Thread.create (f s) (), s))
          in
          let pairs =
            match attack with
            | Flood ->
                spawn 4 (fun s ->
                    flood_thread ~port ~deadline:attack_deadline ~slots:300 s)
            | Slowread ->
                spawn 4 (fun s ->
                    slowread_thread ~port ~deadline:attack_deadline ~slots:300
                      s)
            | Stampede ->
                spawn 32 (fun s ->
                    stampede_thread ~port ~deadline:attack_deadline ~files:64 s)
          in
          (List.map fst pairs, List.map snd pairs)
      in
      (* Let the attack establish before the victims arrive; the
         occupancy attacks need time to fill their slots. *)
      if establish > 0. then Thread.delay establish;
      let stats = Array.init clients (fun _ -> new_stats ()) in
      let t0 = Unix.gettimeofday () in
      let legit_threads =
        List.init clients (fun i ->
            Thread.create
              (legit_worker
                 ~src:(Printf.sprintf "127.0.1.%d" ((i mod 250) + 1))
                 ~host ~port ~path:"/index.html" ~deadline:legit_deadline
                 stats.(i))
              ())
      in
      List.iter Thread.join legit_threads;
      let elapsed = Unix.gettimeofday () -. t0 in
      List.iter Thread.join attacker_threads;
      (* Scrape after the attack ends: the counters are cumulative, and
         an exhausted server cannot answer the scrape mid-flood. *)
      let rec scrape_retry n =
        match scrape_status ~host ~port "/server-status" with
        | [] when n > 1 ->
            Thread.delay 0.25;
            scrape_retry (n - 1)
        | listing -> listing
      in
      let listing = scrape_retry 10 in
      let completed =
        Array.fold_left (fun acc s -> acc + s.completed) 0 stats
      in
      let errors = Array.fold_left (fun acc s -> acc + s.errors) 0 stats in
      let latency =
        Array.fold_left
          (fun acc s -> Obs.Histogram.merge acc s.latencies)
          (Obs.Histogram.create ()) stats
      in
      let count name = int_of_float (value listing name) in
      (* Every reason the guard exports (an unguarded server lists none). *)
      let sheds =
        List.filter_map
          (fun (s : Obs.Exposition.series) ->
            match s.Obs.Exposition.s_labels with
            | [ ("reason", reason) ]
              when s.Obs.Exposition.s_name = "flash_guard_shed_total" ->
                Some (reason, int_of_float s.Obs.Exposition.s_value)
            | _ -> None)
          listing
      in
      {
        arm_name;
        goodput_rps = float_of_int completed /. elapsed;
        legit_ok = completed;
        legit_errors = errors;
        legit_p99_ms = 1000. *. Obs.Histogram.percentile latency 99.;
        arm_shed_total = List.fold_left (fun a (_, n) -> a + n) 0 sheds;
        arm_sheds = sheds;
        arm_helper_hwm = count "flash_helper_queue_depth_hwm";
        arm_helper_rejected = count "flash_helper_rejected_total";
        attacker =
          (match attacker_stats with
          | [] -> None
          | l -> Some (sum_attacker_stats l));
      })

let hostile_arm_json a =
  let num f = if Float.is_finite f then Printf.sprintf "%.6g" f else "0" in
  let attacker_json =
    match a.attacker with
    | None -> "null"
    | Some s ->
        Printf.sprintf
          {|{"opened":%d,"dropped":%d,"ok":%d,"refused":%d}|}
          s.opened s.dropped s.att_ok s.att_refused
  in
  Printf.sprintf
    {|{"arm":%S,"goodput_rps":%s,"completed":%d,"errors":%d,"latency_p99_ms":%s,"shed_total":%d,"sheds":{%s},"helper_queue_hwm":%d,"helper_rejected":%d,"attacker":%s}|}
    a.arm_name (num a.goodput_rps) a.legit_ok a.legit_errors
    (num a.legit_p99_ms) a.arm_shed_total
    (String.concat ","
       (List.map (fun (l, v) -> Printf.sprintf "%S:%d" l v) a.arm_sheds))
    a.arm_helper_hwm a.arm_helper_rejected attacker_json

let run_hostile ~attack ~duration ~clients ~json_file =
  let docroot = make_hostile_docroot () in
  Fun.protect
    ~finally:(fun () -> remove_hostile_docroot docroot)
    (fun () ->
      Format.printf
        "flash-bench: hostile %s — %d legit clients, %.1fs per arm \
         (attackers from %s)@."
        (attack_name attack) clients duration attacker_src;
      let arm name ~guarded ~with_attack =
        let r =
          run_hostile_arm ~docroot ~attack ~arm_name:name ~guarded ~with_attack
            ~duration ~clients
        in
        Format.printf
          "%-10s %8.1f req/s goodput (%d ok, %d errors, p99 %.1f ms%s)@."
          (name ^ ":") r.goodput_rps r.legit_ok r.legit_errors r.legit_p99_ms
          (if guarded then Printf.sprintf ", %d shed" r.arm_shed_total else "");
        r
      in
      let baseline = arm "baseline" ~guarded:false ~with_attack:false in
      let unguarded = arm "unguarded" ~guarded:false ~with_attack:true in
      let guarded = arm "guarded" ~guarded:true ~with_attack:true in
      let ratio a =
        if baseline.goodput_rps > 0. then a.goodput_rps /. baseline.goodput_rps
        else 0.
      in
      Format.printf
        "verdict:    unguarded keeps %.0f%% of baseline goodput, guarded \
         keeps %.0f%%@."
        (100. *. ratio unguarded)
        (100. *. ratio guarded);
      (match json_file with
      | Some file ->
          let num f =
            if Float.is_finite f then Printf.sprintf "%.6g" f else "0"
          in
          let body =
            Printf.sprintf
              {|{"hostile":%S,"duration_s":%s,"legit_clients":%d,"arms":[%s],"unguarded_vs_baseline":%s,"guarded_vs_baseline":%s}|}
              (attack_name attack) (num duration) clients
              (String.concat ","
                 (List.map hostile_arm_json [ baseline; unguarded; guarded ]))
              (num (ratio unguarded))
              (num (ratio guarded))
            ^ "\n"
          in
          let oc = open_out file in
          output_string oc body;
          close_out oc;
          Format.printf "json:       wrote %s@." file
      | None -> ()))

(* ------------------------------------------------------------------ *)
(* Cold-start scenario: predictive warming, measured live.

   Three phases against in-process servers sharing one scratch docroot
   and one Zipf request stream: a recording run writes the machine-
   minable access log; then two fresh (cold-cache) servers serve the
   same stream — one demand-fill, one warming from the recorded log —
   and the early-window cache hit rates are compared.  The prefetches
   ride the helper pool's low-priority lane, so the client-visible
   helper job p99 (scraped from the server's own status listing, which
   excludes low-priority jobs by construction) should be unchanged
   between the arms — that figure is reported alongside the delta.    *)
(* ------------------------------------------------------------------ *)

let coldstart_files = 2000

let make_coldstart_docroot () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "flash-coldstart-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  for i = 0 to coldstart_files - 1 do
    let oc = open_out (Filename.concat dir (Printf.sprintf "z%d.bin" i)) in
    output_string oc (String.make (2048 + (i mod 23 * 512)) 'z');
    close_out oc
  done;
  dir

(* Closed-loop Zipf client: each request samples a rank, so the stream
   has the popularity skew the miner is supposed to exploit.  Sessions
   rotate every 200 requests to keep the accept path exercised. *)
let coldstart_worker ~host ~port ~zipf ~seed ~deadline stats () =
  let rng = Sim.Rng.create ~seed in
  while Unix.gettimeofday () < deadline do
    match Flash_live.Client.Session.connect ~host ~port () with
    | exception _ ->
        stats.errors <- stats.errors + 1;
        Thread.delay 0.02
    | session ->
        (try
           let n = ref 0 in
           while !n < 200 && Unix.gettimeofday () < deadline do
             incr n;
             let path =
               Printf.sprintf "/z%d.bin" (Workload.Zipf.sample zipf rng)
             in
             let t0 = Unix.gettimeofday () in
             let r = Flash_live.Client.Session.request session path in
             record stats
               (Unix.gettimeofday () -. t0)
               (String.length r.Flash_live.Client.body)
               (r.Flash_live.Client.status = 200)
           done
         with _ -> stats.errors <- stats.errors + 1);
        Flash_live.Client.Session.close session
  done

type coldstart_arm = {
  ca_name : string;
  ca_completed : int;
  ca_errors : int;
  ca_early_hit_rate : float;  (* cache hit rate inside the early window *)
  ca_final_hit_rate : float;
  ca_helper_p99_ms : float;
  ca_prefetch_issued : int;
  ca_prefetch_completed : int;
  ca_hits_after_warm : int;
  ca_pinned_entries : int;
}

let run_coldstart_load ~host ~port ~zipf ~clients ~duration =
  let deadline = Unix.gettimeofday () +. duration in
  let stats = Array.init clients (fun _ -> new_stats ()) in
  let threads =
    List.init clients (fun i ->
        Thread.create
          (coldstart_worker ~host ~port ~zipf ~seed:(1000 + i) ~deadline
             stats.(i))
          ())
  in
  (* Sample the cache counters mid-run: the early window is where a
     demand-fill cache is still paying its cold misses. *)
  let early = ref [] in
  let sampler =
    Thread.create
      (fun () ->
        Thread.delay (Float.min 1.0 (duration /. 2.));
        early := scrape_status ~host ~port "/server-status")
      ()
  in
  List.iter Thread.join threads;
  Thread.join sampler;
  (stats, !early)

let run_coldstart_arm ~docroot ~zipf ~clients ~duration ~warm_log name =
  let module Server = Flash_live.Server in
  let config =
    {
      (Server.default_config ~docroot) with
      Server.port = 0;
      mode = Server.Amped;
      trace = false;
      warm = warm_log <> None;
      warm_log;
      warm_interval = 0.2;
      warm_budget = 0.6;
      warm_top_k = 2048;
    }
  in
  let server = Server.start_background config in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let host = "127.0.0.1" and port = Server.port server in
      (* Warming arm: let the startup mining's prefetches finish before
         traffic arrives — the whole point is a pre-populated cache.
         The low-priority lane issues a bounded batch per mining cycle,
         so "done" is not settled-equals-issued (true between every
         batch) but issued holding still across several cycles while
         everything issued has settled. *)
      if warm_log <> None then begin
        let rec wait n stable last_issued =
          if n > 0 && stable < 4 then begin
            Thread.delay 0.25;
            let listing = scrape_status ~host ~port "/server-status" in
            let count name = int_of_float (value listing name) in
            let issued = count "flash_warm_prefetch_issued_total" in
            let settled =
              count "flash_warm_prefetch_completed_total"
              + count "flash_warm_prefetch_failed_total"
            in
            if issued > 0 && settled >= issued && issued = last_issued then
              wait (n - 1) (stable + 1) issued
            else wait (n - 1) 0 issued
          end
        in
        wait 120 0 (-1)
      end;
      let stats, early =
        run_coldstart_load ~host ~port ~zipf ~clients ~duration
      in
      let final = scrape_status ~host ~port "/server-status" in
      let completed =
        Array.fold_left (fun acc s -> acc + s.completed) 0 stats
      in
      let errors = Array.fold_left (fun acc s -> acc + s.errors) 0 stats in
      let fint name = int_of_float (value final name) in
      let hit_rate listing =
        let file = [ ("cache", "file") ] in
        let hits = value listing ~labels:file "flash_cache_hits_total" in
        let misses = value listing ~labels:file "flash_cache_misses_total" in
        if hits +. misses > 0. then hits /. (hits +. misses) else 0.
      in
      {
        ca_name = name;
        ca_completed = completed;
        ca_errors = errors;
        ca_early_hit_rate = hit_rate early;
        ca_final_hit_rate = hit_rate final;
        ca_helper_p99_ms =
          1000.
          *. value final
               ~labels:[ ("quantile", "0.99") ]
               "flash_helper_job_duration_seconds";
        ca_prefetch_issued = fint "flash_warm_prefetch_issued_total";
        ca_prefetch_completed = fint "flash_warm_prefetch_completed_total";
        ca_hits_after_warm = fint "flash_warm_hits_after_warm_total";
        ca_pinned_entries = fint "flash_warm_pinned_entries";
      })

let coldstart_arm_json a =
  let num f = if Float.is_finite f then Printf.sprintf "%.6g" f else "0" in
  Printf.sprintf
    {|{"arm":%S,"completed":%d,"errors":%d,"early_hit_rate":%s,"final_hit_rate":%s,"helper_p99_ms":%s,"prefetch_issued":%d,"prefetch_completed":%d,"hits_after_warm":%d,"pinned_entries":%d}|}
    a.ca_name a.ca_completed a.ca_errors
    (num a.ca_early_hit_rate)
    (num a.ca_final_hit_rate)
    (num a.ca_helper_p99_ms)
    a.ca_prefetch_issued a.ca_prefetch_completed a.ca_hits_after_warm
    a.ca_pinned_entries

let run_coldstart ~duration ~clients ~json_file =
  let module Server = Flash_live.Server in
  let docroot = make_coldstart_docroot () in
  let access_log = Filename.concat docroot "access.log" in
  Fun.protect
    ~finally:(fun () -> remove_hostile_docroot docroot)
    (fun () ->
      Format.printf
        "flash-bench: coldstart — %d Zipf clients over %d files, %.1fs \
         per arm@."
        clients coldstart_files duration;
      let zipf = Workload.Zipf.create ~n:coldstart_files ~alpha:1.0 in
      (* Phase 1: record an access log with the machine-minable resolved
         path field — yesterday's traffic for the warming arm to mine. *)
      let recorded =
        let config =
          {
            (Server.default_config ~docroot) with
            Server.port = 0;
            mode = Server.Amped;
            trace = false;
            access_log = Some access_log;
            access_log_paths = true;
          }
        in
        let server = Server.start_background config in
        Fun.protect
          ~finally:(fun () -> Server.stop server)
          (fun () ->
            let stats, _ =
              run_coldstart_load ~host:"127.0.0.1" ~port:(Server.port server)
                ~zipf ~clients ~duration
            in
            Array.fold_left (fun acc s -> acc + s.completed) 0 stats)
      in
      Format.printf "recorded:   %d requests into %s@." recorded access_log;
      let unwarmed =
        run_coldstart_arm ~docroot ~zipf ~clients ~duration ~warm_log:None
          "unwarmed"
      in
      let warmed =
        run_coldstart_arm ~docroot ~zipf ~clients ~duration
          ~warm_log:(Some access_log) "warmed"
      in
      let report a =
        Format.printf
          "%-10s early hit rate %5.1f%%, final %5.1f%%, helper p99 %.2f ms \
           (%d ok, %d errors%s)@."
          (a.ca_name ^ ":")
          (100. *. a.ca_early_hit_rate)
          (100. *. a.ca_final_hit_rate)
          a.ca_helper_p99_ms a.ca_completed a.ca_errors
          (if a.ca_prefetch_issued > 0 then
             Printf.sprintf ", %d/%d prefetches done, %d pinned, %d hits \
                             after warm"
               a.ca_prefetch_completed a.ca_prefetch_issued a.ca_pinned_entries
               a.ca_hits_after_warm
           else "")
      in
      report unwarmed;
      report warmed;
      Format.printf "verdict:    warming moves the early hit rate %+.1f \
                     points@."
        (100. *. (warmed.ca_early_hit_rate -. unwarmed.ca_early_hit_rate));
      (match json_file with
      | Some file ->
          let num f =
            if Float.is_finite f then Printf.sprintf "%.6g" f else "0"
          in
          let body =
            Printf.sprintf
              {|{"scenario":"coldstart","duration_s":%s,"clients":%d,"files":%d,"recorded_requests":%d,"arms":[%s],"early_delta":%s}|}
              (num duration) clients coldstart_files recorded
              (String.concat ","
                 (List.map coldstart_arm_json [ unwarmed; warmed ]))
              (num (warmed.ca_early_hit_rate -. unwarmed.ca_early_hit_rate))
            ^ "\n"
          in
          let oc = open_out file in
          output_string oc body;
          close_out oc;
          Format.printf "json:       wrote %s@." file
      | None -> ());
      if unwarmed.ca_errors + warmed.ca_errors > 0 then exit 1)

let host =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc:"Server host.")

let port =
  Arg.(
    value
    & opt (some int) None
    & info [ "port"; "p" ] ~docv:"PORT"
        ~doc:
          "Server port.  Required unless $(b,--sweep-domains) is given \
           (the sweep starts its own in-process servers).")

let path =
  Arg.(value & opt string "/" & info [ "path" ] ~docv:"PATH" ~doc:"Request target.")

let clients =
  Arg.(value & opt int 8 & info [ "clients"; "c" ] ~docv:"N" ~doc:"Concurrent clients.")

let client_workers =
  Arg.(
    value & opt int 1
    & info [ "client-workers"; "w" ] ~docv:"K"
        ~doc:
          "Spread the clients over $(docv) OCaml domains.  The default \
           single-domain generator serialises all client threads behind \
           one runtime lock; benchmarking a multi-domain (sharded) \
           server needs a generator that can scale past one core too.")

let duration =
  Arg.(value & opt float 5. & info [ "duration"; "t" ] ~docv:"SEC" ~doc:"Test duration.")

let keep_alive =
  Arg.(value & flag & info [ "keep-alive"; "k" ] ~doc:"Reuse connections (HTTP/1.1).")

let scenario =
  Arg.(
    value & opt string "full"
    & info [ "scenario" ] ~docv:"KIND"
        ~doc:
          "Request shape: full (plain 200s, default); conditional \
           (revalidate with If-None-Match, expecting 304s — the \
           warm-client-cache steady state); range (Range: bytes=0-1023, \
           expecting 206s — the resumed-download shape); coldstart \
           (in-process cold-start comparison — record an access log, \
           then measure the early-window hit rate of a fresh demand-fill \
           server against one warming from that log; ignores \
           $(b,--host)/$(b,--port)).")

let idle_connections =
  Arg.(
    value & opt int 0
    & info [ "connections"; "idle" ] ~docv:"N"
        ~doc:
          "Additionally hold $(docv) warm, idle keep-alive connections \
           open for the whole run (the many-idle-connections scenario \
           event backends are compared on).")

let json_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Also write results as JSON to $(docv).")

let status_path =
  Arg.(
    value
    & opt string "/server-status"
    & info [ "server-status" ] ~docv:"PATH"
        ~doc:
          "Server status endpoint to scrape before/after the run for \
           syscalls-per-request and copies-per-request figures.")

let sweep_domains =
  Arg.(
    value
    & opt (some int) None
    & info [ "sweep-domains" ] ~docv:"N"
        ~doc:
          "Domain-scaling sweep: start an in-process sharded server for \
           each domain count 1..$(docv), bench each for $(b,--duration) \
           seconds, and report the scaling curve.  Needs $(b,--docroot); \
           ignores $(b,--host)/$(b,--port).")

let docroot =
  Arg.(
    value
    & opt (some string) None
    & info [ "docroot" ] ~docv:"DIR"
        ~doc:"Document root for the sweep's in-process servers.")

let sweep_backend =
  let backend_conv =
    let parse s =
      match Evio.of_string s with
      | Ok kind -> Ok kind
      | Error msg -> Error (`Msg msg)
    in
    let print ppf kind = Format.pp_print_string ppf (Evio.name kind) in
    Arg.conv (parse, print)
  in
  Arg.(
    value
    & opt backend_conv Evio.Select
    & info [ "sweep-backend" ] ~docv:"BACKEND"
        ~doc:
          "Event-readiness backend for the sweep's servers \
           (select|poll|epoll; default select).")

let hostile =
  Arg.(
    value
    & opt (some string) None
    & info [ "hostile" ] ~docv:"ATTACK"
        ~doc:
          "Overload-survival scenario: run three in-process arms \
           (baseline, unguarded, guarded) of $(b,--duration) seconds \
           each and compare legit goodput.  $(docv) is one of: flood \
           (held-connection flood past the readiness backend's fd \
           capacity); slowread (slowloris army dribbling header bytes, \
           invisible to the idle timer); stampede (closed-loop \
           cold-file requests swamping the bounded helper queue).  \
           Attackers source from 127.0.0.2 so per-IP limits can tell \
           them from the victims.  Uses its own scratch docroot; \
           ignores $(b,--host)/$(b,--port).")

let main host port path clients client_workers duration keep_alive scenario
    idle_connections json_file status_path sweep_domains docroot sweep_backend
    hostile =
  match hostile with
  | Some kind -> (
      match attack_of_string kind with
      | Some attack -> run_hostile ~attack ~duration ~clients ~json_file
      | None ->
          Format.eprintf "unknown attack %S (flood|slowread|stampede)@." kind;
          exit 2)
  | None when scenario = "coldstart" ->
      (* In-process arms, like --hostile: ignores --host/--port. *)
      run_coldstart ~duration ~clients ~json_file
  | None -> (
  match sweep_domains with
  | Some max_domains ->
      if max_domains < 1 then begin
        Format.eprintf "--sweep-domains must be at least 1@.";
        exit 2
      end;
      let docroot =
        match docroot with
        | Some d -> d
        | None ->
            Format.eprintf "--sweep-domains needs --docroot DIR@.";
            exit 2
      in
      run_sweep ~docroot ~backend:sweep_backend ~max_domains ~path ~clients
        ~client_workers ~duration ~keep_alive ~json_file
  | None -> (
      match port with
      | Some port ->
          run host port path clients client_workers duration keep_alive
            scenario idle_connections json_file status_path
      | None ->
          Format.eprintf "--port is required unless --sweep-domains is given@.";
          exit 2))

let cmd =
  let doc = "closed-loop HTTP load generator (for the live Flash server)" in
  Cmd.v (Cmd.info "flash-bench" ~doc)
    Term.(
      const main $ host $ port $ path $ clients $ client_workers $ duration
      $ keep_alive $ scenario $ idle_connections $ json_file $ status_path
      $ sweep_domains $ docroot $ sweep_backend $ hostile)

let () = exit (Cmd.eval cmd)
