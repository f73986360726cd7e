(* flash-serve: run the live Flash web server.

     dune exec bin/flash_serve.exe -- --docroot ./site --port 8080
     dune exec bin/flash_serve.exe -- --docroot ./site --mode sped
     dune exec bin/flash_serve.exe -- --docroot ./site --mode mt:8 *)

open Cmdliner

let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Info))

(* "p99:50", "99:50" or plain "50" (p99 assumed): quantile and target
   milliseconds for the latency SLO. *)
let parse_slo s =
  let s = String.trim s in
  match String.index_opt s ':' with
  | Some i ->
      let q = String.sub s 0 i in
      let q = if String.length q > 0 && (q.[0] = 'p' || q.[0] = 'P') then String.sub q 1 (String.length q - 1) else q in
      let t = String.sub s (i + 1) (String.length s - i - 1) in
      (match (float_of_string_opt q, float_of_string_opt t) with
      | Some q, Some t when q > 0. && q <= 100. && t > 0. -> Ok (q, t)
      | _ -> Error (`Msg (Printf.sprintf "invalid SLO %S (want P:MS, e.g. p99:50)" s)))
  | None -> (
      match float_of_string_opt s with
      | Some t when t > 0. -> Ok (99., t)
      | _ -> Error (`Msg (Printf.sprintf "invalid SLO %S (want P:MS or MS)" s)))

let serve docroot port mode event_backend helpers cache_mb cache_policy
    cache_admission cache_budget_mb no_cgi no_gzip
    access_log access_log_timing access_log_paths status_path
    no_status stall_ms no_trace trace_capacity trace_path slow_request_ms
    slow_request_log metrics_path no_metrics latency_slo recorder_dump
    recorder_interval guard warm_opts verbose =
  setup_logs verbose;
  let suffix_int s prefix default =
    match
      int_of_string_opt
        (String.sub s (String.length prefix)
           (String.length s - String.length prefix))
    with
    | Some n when n > 0 -> n
    | _ -> default
  in
  let has_prefix s prefix =
    String.length s > String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  let mode =
    match mode with
    | "amped" -> Flash_live.Server.Amped
    | "sped" -> Flash_live.Server.Sped
    | s when has_prefix s "mp:" -> Flash_live.Server.Mp (suffix_int s "mp:" 4)
    | s when has_prefix s "mt:" -> Flash_live.Server.Mt (suffix_int s "mt:" 8)
    | s when has_prefix s "sharded:" ->
        Flash_live.Server.Sharded (suffix_int s "sharded:" 2)
    | "mp" -> Flash_live.Server.Mp 4
    | "mt" -> Flash_live.Server.Mt 8
    | "sharded" ->
        Flash_live.Server.Sharded (max 1 (Domain.recommended_domain_count ()))
    | other ->
        Format.eprintf
          "unknown mode %S (amped|sped|mp[:N]|mt[:N]|sharded[:N])@." other;
        exit 2
  in
  if not (Sys.file_exists docroot && Sys.is_directory docroot) then begin
    Format.eprintf "docroot %S is not a directory@." docroot;
    exit 2
  end;
  let warm_on, warm_interval, warm_budget, warm_top_k, warm_log = warm_opts in
  (* --warm-log names a log to mine at startup: that is a request to
     warm, so it implies --warm. *)
  let warm_on = warm_on || warm_log <> None in
  let config =
    {
      (Flash_live.Server.default_config ~docroot) with
      Flash_live.Server.port;
      mode;
      helpers;
      file_cache_bytes = cache_mb * 1024 * 1024;
      cache_policy;
      cache_admission;
      cache_budget_bytes = Option.map (fun mb -> mb * 1024 * 1024) cache_budget_mb;
      enable_cgi = not no_cgi;
      access_log;
      access_log_timing;
      access_log_paths;
      status_path = (if no_status then None else Some status_path);
      stall_threshold = stall_ms /. 1000.;
      trace = not no_trace;
      trace_capacity;
      trace_path = Some trace_path;
      slow_request_ms;
      slow_request_log;
      event_backend;
      gzip_precompressed = not no_gzip;
      metrics_path = (if no_metrics then None else Some metrics_path);
      latency_slo;
      recorder_interval;
      guard;
      warm = warm_on;
      warm_interval;
      warm_budget;
      warm_top_k;
      warm_log;
    }
  in
  if Flash_guard.Guard.enabled guard && guard.Flash_guard.Guard.slo_shed
     && latency_slo = None
  then begin
    Format.eprintf "--slo-shed needs --latency-slo-ms to sense pressure@.";
    exit 2
  end;
  let server = Flash_live.Server.start config in
  Format.printf "Flash serving %s on http://127.0.0.1:%d/ (%s)@." docroot
    (Flash_live.Server.port server)
    (match mode with
    | Flash_live.Server.Amped -> "AMPED"
    | Flash_live.Server.Sped -> "SPED"
    | Flash_live.Server.Mp n -> Printf.sprintf "MP x%d" n
    | Flash_live.Server.Mt n -> Printf.sprintf "MT x%d" n
    | Flash_live.Server.Sharded n -> Printf.sprintf "SHARDED x%d" n);
  Format.printf "event backend: %s@." (Evio.name event_backend);
  Format.printf "file cache: %d MB, %s replacement, %s admission%s@." cache_mb
    (Flash_cache.Policy.name cache_policy)
    (Flash_cache.Policy.admission_name cache_admission)
    (match cache_budget_mb with
    | Some mb -> Printf.sprintf ", %d MB shared budget" mb
    | None -> "");
  (match config.Flash_live.Server.status_path with
  | Some p ->
      Format.printf
        "status endpoint: %s (JSON with ?json, flight recorder with \
         ?window=N)@."
        p
  | None -> ());
  (match config.Flash_live.Server.metrics_path with
  | Some p -> Format.printf "metrics endpoint: %s (Prometheus text)@." p
  | None -> ());
  (match latency_slo with
  | Some (q, t) -> Format.printf "latency SLO: p%g <= %g ms@." q t
  | None -> ());
  (if config.Flash_live.Server.trace then
     match config.Flash_live.Server.trace_path with
     | Some p ->
         Format.printf "trace endpoint:  %s (Chrome trace-event JSON)@." p
     | None -> ());
  (match slow_request_ms with
  | Some ms ->
      Format.printf "slow requests over %.1f ms logged to %s@." ms
        (Option.value slow_request_log ~default:"stderr")
  | None -> ());
  (if warm_on then
     Format.printf
       "warming: every %gs, hot tier <= %d%% of cache, top %d candidates%s@."
       warm_interval
       (int_of_float (100. *. warm_budget))
       warm_top_k
       (match warm_log with
       | Some l -> Printf.sprintf ", mining %s at startup" l
       | None -> ""));
  (if Flash_guard.Guard.enabled guard then begin
     let g = guard in
     let parts =
       List.filter_map Fun.id
         [
           Option.map
             (Printf.sprintf "%d conns/ip")
             g.Flash_guard.Guard.max_conns_per_ip;
           Option.map
             (fun r ->
               Printf.sprintf "%g req/s/ip over %gs" r
                 g.Flash_guard.Guard.rps_window)
             g.Flash_guard.Guard.max_rps_per_ip;
           (if g.Flash_guard.Guard.header_deadline > 0. then
              Some
                (Printf.sprintf "%gs header deadline"
                   g.Flash_guard.Guard.header_deadline)
            else None);
           (if g.Flash_guard.Guard.min_byte_rate > 0. then
              Some
                (Printf.sprintf "%g B/s transfer floor"
                   g.Flash_guard.Guard.min_byte_rate)
            else None);
           Option.map
             (Printf.sprintf "%d queued helper jobs")
             g.Flash_guard.Guard.max_helper_queue;
           Option.map
             (Printf.sprintf "%d CGI children")
             g.Flash_guard.Guard.max_cgi_inflight;
           (if g.Flash_guard.Guard.slo_shed then Some "SLO-burn shedder"
            else None);
         ]
     in
     Format.printf "guard: %s; Retry-After %ds@."
       (String.concat ", " parts)
       g.Flash_guard.Guard.retry_after
   end);
  let stop _ =
    let s = Flash_live.Server.stats server in
    Format.printf
      "@.shutting down: %d requests, %d connections, %d errors, cache %d/%d \
       hit/miss (%d evicted), %d helper jobs@."
      s.Flash_live.Server.requests s.Flash_live.Server.connections
      s.Flash_live.Server.errors s.Flash_live.Server.cache_hits
      s.Flash_live.Server.cache_misses s.Flash_live.Server.cache_evictions
      s.Flash_live.Server.helper_jobs;
    let latency = Flash_live.Server.latency server in
    if Obs.Histogram.count latency > 0 then
      Format.printf
        "latency: p50 %.2f ms, p90 %.2f ms, p99 %.2f ms, max %.2f ms; %d loop \
         stalls (max %.1f ms)@."
        (1000. *. Obs.Histogram.percentile latency 50.)
        (1000. *. Obs.Histogram.percentile latency 90.)
        (1000. *. Obs.Histogram.percentile latency 99.)
        (1000. *. Obs.Histogram.max latency)
        s.Flash_live.Server.loop_stalls
        (1000. *. s.Flash_live.Server.loop_max_stall);
    Flash_live.Server.stop server;
    exit 0
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  (* SIGUSR1: dump the flight-recorder ring as JSON without stopping. *)
  let dump _ =
    let json = Flash_live.Server.recorder_dump server in
    match recorder_dump with
    | Some path ->
        let oc = open_out path in
        output_string oc (json ^ "\n");
        close_out oc;
        Format.printf "flight recorder dumped to %s@." path
    | None -> Format.printf "%s@." json
  in
  (try Sys.set_signal Sys.sigusr1 (Sys.Signal_handle dump)
   with Invalid_argument _ -> ());
  Flash_live.Server.run server

let docroot =
  Arg.(
    required
    & opt (some string) None
    & info [ "docroot"; "d" ] ~docv:"DIR" ~doc:"Document root directory.")

let port =
  Arg.(value & opt int 0 & info [ "port"; "p" ] ~docv:"PORT" ~doc:"Listen port (0 = ephemeral).")

let mode =
  Arg.(
    value & opt string "amped"
    & info [ "mode"; "m" ] ~docv:"MODE"
        ~doc:
          "Concurrency architecture: amped (default), sped, mp[:N], \
           mt[:N] or sharded[:N] (N AMPED shards on OCaml domains).")

let backend_conv =
  let parse s =
    match Evio.of_string s with
    | Ok kind -> Ok kind
    | Error msg -> Error (`Msg msg)
  in
  let print ppf kind = Format.pp_print_string ppf (Evio.name kind) in
  Arg.conv (parse, print)

let event_backend =
  Arg.(
    value
    & opt backend_conv Evio.default
    & info [ "event-backend" ] ~docv:"BACKEND"
        ~doc:
          (Printf.sprintf
             "Event-readiness mechanism: %s.  The default is the best this \
              system has (auto): epoll (Linux) keeps the interest set in the \
              kernel, so a wait costs O(ready), not O(watched); poll lifts \
              select's descriptor cap but still walks every watched fd per \
              wait; select is the paper's primitive (FD_SETSIZE-capped, \
              O(watched) per wait), kept for its comparison."
             Evio.valid_names))

let helpers =
  Arg.(value & opt int 4 & info [ "helpers" ] ~docv:"N" ~doc:"AMPED helper threads.")

let cache_mb =
  Arg.(value & opt int 32 & info [ "cache-mb" ] ~docv:"MB" ~doc:"File cache size.")

(* A real Arg.conv so --help documents the valid names and a bad value
   fails argument parsing with the list (exit 124 from Cmdliner). *)
let policy_conv =
  let parse s =
    match Flash_cache.Policy.of_string s with
    | Ok kind -> Ok kind
    | Error msg -> Error (`Msg msg)
  in
  let print ppf kind =
    Format.pp_print_string ppf (Flash_cache.Policy.name kind)
  in
  Arg.conv (parse, print)

let cache_policy =
  Arg.(
    value
    & opt policy_conv Flash_live.File_cache.default_policy
    & info [ "cache-policy" ] ~docv:"POLICY"
        ~doc:
          (Printf.sprintf
             "File-cache replacement policy: %s.  gdsf ranks files by \
              hits per byte, keeping small popular files over large rare \
              ones, so a working set larger than the cache misses less; \
              lru is the paper's recency order; slru segments out scan \
              traffic; lfu favours all-time-popular files (exponentially \
              decayed counts)."
             Flash_cache.Policy.valid_names))

let admission_conv =
  let parse s =
    match Flash_cache.Policy.admission_of_string s with
    | Ok a -> Ok a
    | Error msg -> Error (`Msg msg)
  in
  let print ppf a =
    Format.pp_print_string ppf (Flash_cache.Policy.admission_name a)
  in
  Arg.conv (parse, print)

let cache_admission =
  Arg.(
    value
    & opt admission_conv Flash_cache.Policy.Admit_always
    & info [ "cache-admission" ] ~docv:"GATE"
        ~doc:
          (Printf.sprintf
             "File-cache admission gate: %s.  size:BYTES only caches \
              entries at least BYTES large (tiny responses are cheap to \
              rebuild); freq[:P] admits keys seen missing before always, \
              first-timers with probability P (default 0.1)."
             Flash_cache.Policy.admission_valid_names))

let cache_budget_mb =
  Arg.(
    value
    & opt (some int) None
    & info [ "cache-budget" ] ~docv:"MB"
        ~doc:
          "Overlay a shared byte budget on the file cache: when resident \
           bytes exceed it, the cache sheds entries even below its own \
           --cache-mb capacity.")

let no_cgi = Arg.(value & flag & info [ "no-cgi" ] ~doc:"Disable /cgi-bin/.")

let no_gzip =
  Arg.(
    value & flag
    & info [ "no-gzip" ]
        ~doc:
          "Disable gzip content negotiation entirely: no .gz sibling \
           lookup, no Vary: Accept-Encoding header.")

let access_log =
  Arg.(
    value
    & opt (some string) None
    & info [ "access-log" ] ~docv:"FILE" ~doc:"Write a Common Log Format access log.")

let access_log_timing =
  Arg.(
    value & flag
    & info [ "access-log-timing" ]
        ~doc:
          "Append each request's service time in microseconds after the \
           Common Log Format fields.")

let access_log_paths =
  Arg.(
    value & flag
    & info [ "access-log-paths" ]
        ~doc:
          "Append the resolved filesystem path after the Common Log \
           Format status/bytes fields — stable machine-minable fields \
           (like Apache's %>s %O %f) that --warm-log mines directly.")

let status_path =
  Arg.(
    value
    & opt string "/server-status"
    & info [ "status-path" ] ~docv:"PATH"
        ~doc:"Path of the built-in status endpoint (text; ?json for JSON).")

let no_trace =
  Arg.(
    value & flag
    & info [ "no-trace" ] ~doc:"Disable request-lifecycle tracing entirely.")

let trace_capacity =
  Arg.(
    value & opt int 256
    & info [ "trace-capacity" ] ~docv:"N"
        ~doc:"Completed traces kept in the ring buffer.")

let trace_path =
  Arg.(
    value
    & opt string "/server-trace"
    & info [ "trace-path" ] ~docv:"PATH"
        ~doc:
          "Path of the Chrome trace-event endpoint (open the JSON in \
           Perfetto).")

let slow_request_ms =
  Arg.(
    value
    & opt (some float) None
    & info [ "slow-request-ms" ] ~docv:"MS"
        ~doc:
          "Log the full span breakdown of requests slower than this many \
           milliseconds.")

let slow_request_log =
  Arg.(
    value
    & opt (some string) None
    & info [ "slow-request-log" ] ~docv:"FILE"
        ~doc:"Append slow-request breakdowns here (default stderr).")

let no_status =
  Arg.(value & flag & info [ "no-status" ] ~doc:"Disable the status endpoint.")

let stall_ms =
  Arg.(
    value & opt float 50.
    & info [ "stall-threshold" ] ~docv:"MS"
        ~doc:"Event-loop iterations processing longer than this count as stalls.")

let metrics_path =
  Arg.(
    value
    & opt string "/metrics"
    & info [ "metrics-path" ] ~docv:"PATH"
        ~doc:
          "Path of the Prometheus text exposition endpoint (one scrape = \
           one walk over the unified metrics registry).")

let no_metrics =
  Arg.(
    value & flag & info [ "no-metrics" ] ~doc:"Disable the metrics endpoint.")

let slo_conv = Arg.conv (parse_slo, fun ppf (q, t) -> Format.fprintf ppf "p%g:%g" q t)

let latency_slo =
  Arg.(
    value
    & opt (some slo_conv) None
    & info [ "latency-slo-ms" ] ~docv:"P:MS"
        ~doc:
          "Evaluate a latency SLO over the flight recorder's one-second \
           windows, e.g. p99:50 (p99 at or under 50 ms; plain MS assumes \
           p99).  Error-budget burn and the healthy/degraded/breached \
           state appear on /server-status and /metrics.")

let recorder_dump =
  Arg.(
    value
    & opt (some string) None
    & info [ "recorder-dump" ] ~docv:"FILE"
        ~doc:
          "On SIGUSR1, write the flight-recorder ring (per-second \
           rollups) as JSON here instead of stdout.")

let recorder_interval =
  Arg.(
    value & opt float 1.0
    & info [ "recorder-interval" ] ~docv:"SECONDS"
        ~doc:"Flight-recorder window length (default 1 s).")

(* ---- Guard (admission control and load shedding) flags ------------- *)

let max_conns_per_ip =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-conns-per-ip" ] ~docv:"N"
        ~doc:
          "Refuse (429) connections from a peer address already holding \
           N open connections — connection-flood defense.")

let max_rps_per_ip =
  Arg.(
    value
    & opt (some float) None
    & info [ "max-rps-per-ip" ] ~docv:"RPS"
        ~doc:
          "Refuse (429, closing) requests from a peer exceeding this \
           rate over a sliding window.")

let rps_window =
  Arg.(
    value
    & opt float Flash_guard.Guard.default_config.Flash_guard.Guard.rps_window
    & info [ "rps-window" ] ~docv:"SECONDS"
        ~doc:"Sliding-window length for --max-rps-per-ip.")

let header_deadline =
  Arg.(
    value & opt float 0.
    & info [ "header-deadline" ] ~docv:"SECONDS"
        ~doc:
          "Answer 408 and close when a request head is not complete \
           this long after its first byte — slowloris defense (0 \
           disables).")

let min_byte_rate =
  Arg.(
    value & opt float 0.
    & info [ "min-byte-rate" ] ~docv:"BYTES/S"
        ~doc:
          "Close connections moving response bytes slower than this, \
           checked every --transfer-interval — slow-read defense (0 \
           disables).")

let transfer_interval =
  Arg.(
    value
    & opt float
        Flash_guard.Guard.default_config.Flash_guard.Guard.transfer_interval
    & info [ "transfer-interval" ] ~docv:"SECONDS"
        ~doc:"How often --min-byte-rate progress is checked.")

let max_helper_queue =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-helper-queue" ] ~docv:"N"
        ~doc:
          "Bound the AMPED helper queue: jobs beyond N waiting answer \
           503 with Retry-After instead of queueing without bound.")

let max_cgi =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-cgi" ] ~docv:"N"
        ~doc:
          "Bound concurrent CGI children: requests beyond N in flight \
           answer 503 with Retry-After instead of forking.")

let slo_shed =
  Arg.(
    value & flag
    & info [ "slo-shed" ]
        ~doc:
          "Shed load when the --latency-slo-ms SLO burns: first reap \
           idle keep-alives, then refuse new connections (503), then \
           refuse helper-queue admission — never in-flight requests.")

let shed_idle_after =
  Arg.(
    value
    & opt float
        Flash_guard.Guard.default_config.Flash_guard.Guard.shed_idle_after
    & info [ "shed-idle-after" ] ~docv:"SECONDS"
        ~doc:
          "Under SLO shedding, reap keep-alive connections idle this \
           long.")

let retry_after =
  Arg.(
    value
    & opt int Flash_guard.Guard.default_config.Flash_guard.Guard.retry_after
    & info [ "retry-after" ] ~docv:"SECONDS"
        ~doc:"Delay advertised in Retry-After on guard 429/503 responses.")

let guard_term =
  let mk max_conns_per_ip max_rps_per_ip rps_window header_deadline
      min_byte_rate transfer_interval max_helper_queue max_cgi_inflight
      slo_shed shed_idle_after retry_after =
    {
      Flash_guard.Guard.max_conns_per_ip;
      max_rps_per_ip;
      rps_window;
      header_deadline;
      min_byte_rate;
      transfer_interval;
      max_helper_queue;
      max_cgi_inflight;
      slo_shed;
      shed_idle_after;
      retry_after;
    }
  in
  Term.(
    const mk $ max_conns_per_ip $ max_rps_per_ip $ rps_window
    $ header_deadline $ min_byte_rate $ transfer_interval $ max_helper_queue
    $ max_cgi $ slo_shed $ shed_idle_after $ retry_after)

(* ---- Predictive warming flags --------------------------------------- *)

let warm =
  Arg.(
    value & flag
    & info [ "warm" ]
        ~doc:
          "Predictive cache warming: mine observed demand (cache hit \
           stats, admission rejections) every --warm-interval, pin the \
           ranked hot set in the file cache, and prefetch ranked absent \
           files through the helpers' low-priority lane.  AMPED and \
           sharded modes only (warming rides the helper pool).")

let warm_interval =
  Arg.(
    value & opt float 5.
    & info [ "warm-interval" ] ~docv:"SECONDS"
        ~doc:"Seconds between mining cycles (default 5).")

let warm_budget =
  Arg.(
    value & opt float 0.25
    & info [ "warm-budget" ] ~docv:"FRACTION"
        ~doc:
          "Bound the pinned hot tier to this fraction of the file \
           cache's capacity (default 0.25).")

let warm_top_k =
  Arg.(
    value & opt int 64
    & info [ "warm-top-k" ] ~docv:"N"
        ~doc:"Candidates considered per mining cycle (default 64).")

let warm_log =
  Arg.(
    value
    & opt (some string) None
    & info [ "warm-log" ] ~docv:"FILE"
        ~doc:
          "Mine this access log once at startup (implies --warm), so a \
           restarted server prefetches the previous run's hot set \
           before its first request.  Logs written with \
           --access-log-paths mine by resolved path; plain CLF logs \
           fall back to the request target.")

let warm_term =
  let mk warm warm_interval warm_budget warm_top_k warm_log =
    (warm, warm_interval, warm_budget, warm_top_k, warm_log)
  in
  Term.(const mk $ warm $ warm_interval $ warm_budget $ warm_top_k $ warm_log)

let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Debug logging.")

let cmd =
  let doc = "the Flash web server (AMPED architecture, USENIX '99)" in
  Cmd.v
    (Cmd.info "flash-serve" ~doc)
    Term.(
      const serve $ docroot $ port $ mode $ event_backend $ helpers
      $ cache_mb $ cache_policy
      $ cache_admission $ cache_budget_mb $ no_cgi $ no_gzip
      $ access_log $ access_log_timing $ access_log_paths $ status_path
      $ no_status $ stall_ms
      $ no_trace $ trace_capacity $ trace_path $ slow_request_ms
      $ slow_request_log $ metrics_path $ no_metrics $ latency_slo
      $ recorder_dump $ recorder_interval $ guard_term $ warm_term $ verbose)

let () = exit (Cmd.eval cmd)
