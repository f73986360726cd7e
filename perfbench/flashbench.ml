(* One benchmark run: build a seeded docroot, start flash_serve with its
   shipped defaults, drive one workload closed-loop from two generator
   processes, verify every response, and print the metrics.  With
   [--trace 1] the run also replays the workload's stream in-process
   for per-layer spans and prints the per-layer metrics instead.

   Usage: flashbench --workload NAME --seed N --seconds S --trace 0|1
            --serve PATH/flash_serve.exe [--workdir DIR] [--rev REV] *)

open Perfbench

let connections = 2
let setup_starts = 21
let deadline = 2.0
let slice_s = 1.0

(* Warm-up seconds before the window, and the replay's warm-up and
   traced request counts. *)
let plan = function
  | Workload.Hot_small -> (5.0, 0, 20000)
  | Workload.Cold_miss -> (5.0, 20000, 10000)
  | Workload.Bulk -> (5.0, 0, 400)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let serve = ref "" and workdir = ref ".perfbench-run" and rev = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--serve", Arg.Set_string serve, "PATH flash_serve executable");
      ("--workdir", Arg.Set_string workdir, "DIR scratch and result directory");
      ("--rev", Arg.Set_string rev, "REV source revision recorded with the result");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "flashbench --workload NAME --seed N --seconds S --trace 0|1 --serve PATH";
  let name =
    match Workload.of_string !workload with
    | Some n -> n
    | None ->
        prerr_endline
          ("unknown workload " ^ !workload ^ "; one of: "
          ^ String.concat ", " (List.map fst Workload.names));
        exit 2
  in
  if not (Sys.file_exists !serve) then begin
    prerr_endline ("no flash_serve executable at " ^ !serve);
    exit 2
  end;
  let traced = !trace = 1 in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let warm_s, replay_warm, replay_n = plan name in
  let w = Workload.create name ~seed:!seed in
  let content = Content.create ~seed:!seed in
  let run_dir =
    Filename.concat !workdir
      (Printf.sprintf "%s-%d-%d" (Workload.to_string name) !seed (Unix.getpid ()))
  in
  let docroot = Filename.concat run_dir "docroot" in
  mkdir_p docroot;
  let docroot = Unix.realpath docroot in
  let server = ref None and gen = ref None in
  let cleanup () =
    Option.iter Loadgen.abort !gen;
    gen := None;
    Option.iter Serverproc.stop !server;
    server := None;
    rm_rf run_dir
  in
  let fail_exit msg =
    cleanup ();
    prerr_endline ("flashbench: " ^ msg);
    exit 1
  in
  try
    Workload.write_docroot w content docroot;
    let etags =
      Array.map
        (fun (f : Workload.file) ->
          let st = Unix.stat (docroot ^ f.Workload.path) in
          Http.Etag.make ~mtime:st.Unix.st_mtime ~size:st.Unix.st_size ())
        w.Workload.files
    in
    let probe =
      Printf.sprintf "GET %s HTTP/1.1\r\nHost: bench\r\n\r\n" w.Workload.files.(0).Workload.path
    in
    let log = Filename.concat run_dir "flash_serve.log" in
    let start () = Serverproc.start ~exe:!serve ~docroot ~log ~probe in
    let srv, _ = start () in
    server := Some srv;
    let port = srv.Serverproc.port in
    (* Warm-up, first pass: every file once, verified, so the cache holds
       what fits and each ETag has been seen on the wire. *)
    let c = Client.create ~deadline (Client.tcp_connect ~deadline port) in
    let learn_failed = ref 0 in
    Array.iteri
      (fun i (f : Workload.file) ->
        let r = { Workload.file = i; kind = Workload.Get } in
        let ok =
          match Client.exchange c (Workload.request_line w r) with
          | Ok resp -> Verify.check content (Verify.expect w ~etag:etags.(i) r) resp = Ok ()
          | Error _ -> false
        in
        if not ok then begin
          incr learn_failed;
          prerr_endline ("warm-up fetch failed: " ^ f.Workload.path);
          Client.disconnect c
        end)
      w.Workload.files;
    Client.disconnect c;
    let g =
      Loadgen.start ~w ~content ~port ~etags ~deadline ~connections
        ~ctl_path:(Filename.concat run_dir "ctl")
        ~lifetime:(warm_s +. float_of_int !seconds +. 60.)
    in
    gen := Some g;
    let gen_cpu () = Loadgen.cpu_seconds g in
    Unix.sleepf warm_s;
    Loadgen.hold_all g;
    let before = Scrape.fetch ~port in
    let server_cpu () = Serverproc.cpu_seconds srv.Serverproc.pid in
    (* The window is cut into one-second slices.  Every rate, percentile
       and CPU cost is taken per slice and the run reports the median over
       slices, so outside load on a shared host that stalls a few seconds
       of the window moves a few slices rather than the result. *)
    let nslices = max 1 !seconds in
    let cpu = Array.make (nslices + 1) 0. and gcpu = Array.make (nslices + 1) 0. in
    cpu.(0) <- server_cpu ();
    gcpu.(0) <- gen_cpu ();
    let gen0 = gcpu.(0) in
    let mono () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9 in
    let t0 = mono () in
    Loadgen.set g Loadgen.measure;
    for k = 1 to nslices do
      let dt = t0 +. (float_of_int k *. slice_s) -. mono () in
      if dt > 0. then Unix.sleepf dt;
      cpu.(k) <- server_cpu ();
      gcpu.(k) <- gen_cpu ()
    done;
    let gen1 = gen_cpu () in
    let window = mono () -. t0 in
    let stats = Loadgen.finish g in
    gen := None;
    let after = Scrape.fetch ~port in
    let rss = Serverproc.peak_rss_mib srv in
    Serverproc.stop srv;
    server := None;
    (* Set-up time: several cold starts, median reported.  They run
       after the window, while the host is still busy, so they see the
       same CPU speed the measurement did rather than an idle one. *)
    let setups =
      List.init setup_starts (fun _ ->
          let srv, s = start () in
          server := Some srv;
          Serverproc.stop srv;
          server := None;
          s)
    in
    let warm_failed =
      !learn_failed + List.fold_left (fun a s -> a + s.Loadgen.warm_failed) 0 stats
    in
    let all = Sampler.merge (List.map (fun s -> s.Loadgen.samples) stats) in
    let attempted = Sampler.count all in
    let failed = attempted - Sampler.verified all in
    List.iter
      (fun s -> List.iter (fun m -> prerr_endline ("failure: " ^ m)) (List.rev s.Loadgen.first_failures))
      stats;
    let slices =
      Array.init nslices (fun k ->
          let lo = t0 +. (float_of_int k *. slice_s) in
          Sampler.slice all ~lo ~hi:(lo +. slice_s))
    in
    let rate x = float_of_int x /. slice_s in
    let per_req s cpu_s = cpu_s *. 1e6 /. float_of_int (max 1 (Sampler.verified s)) in
    let gen_us k s = per_req s (gcpu.(k + 1) -. gcpu.(k)) in
    (* The host's speed in each slice, read off the generator: it does
       the same work per request whatever the server does, and on the one
       CPU it shares with the server it slows when the server slows.  On
       a shared VM that speed alternates by up to 1.7x for seconds at a
       time, so each slice is scaled to the workload's reference client
       cost.  Rates scale up by the slowdown and times down. *)
    let slowdown k s = gen_us k s /. Workload.reference_client_us name in
    let measures =
      [
        ("rps", "req/s", `Rate, fun _ s -> rate (Sampler.verified s));
        ("goodput_mib_s", "MiB/s", `Rate, fun _ s -> rate (Sampler.body_bytes s) /. 1048576.);
        ("latency_p50_ms", "ms", `Time, fun _ s -> Sampler.percentile s 50.);
        ("latency_p99_ms", "ms", `Time, fun _ s -> Sampler.percentile s 99.);
      ]
    in
    let series f = Array.to_list (Array.mapi f slices) in
    let measured = List.map (fun (n, _, _, f) -> (n, series f)) measures in
    let at_reference =
      List.map
        (fun (n, _, scale, f) ->
          ( n,
            series (fun k s ->
                match scale with
                | `Rate -> f k s *. slowdown k s
                | `Time -> f k s /. slowdown k s) ))
        measures
    in
    let median l name = Sampler.median_of (List.assoc name l) in
    let min_beyond_p99 =
      Array.fold_left (fun a s -> min a (Sampler.beyond s 99.)) max_int slices
    in
    let samples = Printf.sprintf "%d samples in %d slices of %g s" attempted nslices slice_s in
    (* Server CPU over the whole window: a slice holds too few 10 ms
       /proc ticks of it for a precise ratio. *)
    let in_window = Array.fold_left (fun a s -> a + Sampler.verified s) 0 slices in
    let server_cpu_us_per_req =
      (cpu.(nslices) -. cpu.(0)) *. 1e6 /. float_of_int (max 1 in_window)
    in
    let rate_and_time =
      List.map
        (fun (n, unit_, _, _) ->
          let note =
            Printf.sprintf "%.6g as measured%s" (median measured n)
              (match n with
              | "latency_p50_ms" -> "; " ^ samples
              | "latency_p99_ms" ->
                  Printf.sprintf "; %s, at least %d beyond p99 in each slice" samples
                    min_beyond_p99
              | _ -> "")
          in
          Report.m n unit_ ~note (median at_reference n))
        measures
    in
    let end_to_end =
      (Report.m "setup_s" "s" (Sampler.median_of setups)
      :: List.filter (fun m -> m.Report.name <> "latency_p99_ms") rate_and_time)
      @ [
          Report.m "server_cpu_us_per_req" "us"
            ~note:(Printf.sprintf "%.6g as measured" server_cpu_us_per_req)
            ((cpu.(nslices) -. cpu.(0)) /. (gcpu.(nslices) -. gcpu.(0))
            *. Workload.reference_client_us name);
          Report.m "server_rss_mib" "MiB" rss;
        ]
    in
    (* Printed and recorded, but not in the result line.  The p99 moved
       by 8-13% (IQR / median over 10 seeds) even at the reference
       speed: tail latency on a shared host follows its neighbours more
       than its speed.  The error share is 0 on every workload, and a
       bound relative to 0 is undefined. *)
    let reported_only =
      [
        List.find (fun m -> m.Report.name = "latency_p99_ms") rate_and_time;
        Report.m "error_share" "fraction"
          ~note:(Printf.sprintf "%d of %d failed" failed attempted)
          (float_of_int failed /. float_of_int (max 1 attempted));
      ]
    in
    let by_slice =
      ("gen_cpu_us_per_req", series gen_us)
      :: ("server_cpu_us_per_req_measured", series (fun k s -> per_req s (cpu.(k + 1) -. cpu.(k))))
      :: List.map (fun (n, v) -> (n ^ "_measured", v)) measured
      @ at_reference
    in
    let scrape_ok, live =
      match (before, after) with
      | Ok before, Ok after ->
          let d = Scrape.delta ~before ~after in
          (* The closing scrape is itself one parsed request. *)
          let reqs = Float.max 1. (d "flash_http_requests_total" -. 1.) in
          let per_req x = d x /. reqs in
          let hits = d "flash_cache_hits_total" and misses = d "flash_cache_misses_total" in
          let work = d "flash_loop_work_seconds" and wait = d "flash_loop_wait_seconds" in
          ( true,
            [
              Report.m "gen.cpu_share" "fraction" ((gen1 -. gen0) /. window);
              Report.m "file_cache.hit_ratio" "fraction"
                (if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
              Report.m "file_cache.evictions_per_req" "count/req"
                (per_req "flash_cache_evictions_total");
              Report.m "helper.jobs_per_req" "count/req" (per_req "flash_helper_jobs_total");
              Report.m "sendq.writev_calls_per_req" "count/req"
                (per_req "flash_writev_calls_total");
              Report.m "sendq.write_calls_per_req" "count/req"
                (per_req "flash_write_calls_total");
              Report.m "sendq.bytes_copied_per_req" "B/req" (per_req "flash_bytes_copied_total");
              Report.m "evio.wakeups_per_req" "count/req" (per_req "flash_loop_wakeups_total");
              Report.m "evio.loop_busy_share" "fraction"
                (if work +. wait > 0. then work /. (work +. wait) else 0.);
            ] )
      | Error e, _ | _, Error e ->
          prerr_endline ("metrics scrape failed: " ^ e);
          (false, [])
    in
    let per_layer =
      if not traced then []
      else begin
        let spans_path =
          Filename.concat !workdir (Printf.sprintf "spans-%s.tsv" (Workload.to_string name))
        in
        let r = Replay.run w ~docroot ~etags ~warm:replay_warm ~n:replay_n ~spans_path in
        let self l = List.assoc l r.Replay.self_ns in
        let layer_ns =
          [
            ("http_request.parse_ns", "http_request.parse");
            ("http_request.normalize_ns", "http_request.normalize");
            ("http_plan.evaluate_ns", "http_plan.evaluate");
            ("http_response.header_ns", "http_response.header");
            ("file_cache.find_ns", "file_cache.find");
            ("file_cache.insert_ns", "file_cache.insert");
            ("file_cache.map_body_ns", "file_cache.map_body");
            ("helper.dispatch_ns", "helper.dispatch");
            ("sendq.send_ns", "sendq.send");
            ("obs.trace_request_ns", "obs.trace_request");
            ("obs.histogram_record_ns", "obs.histogram_record");
          ]
        in
        let attributed_us =
          (List.fold_left (fun a (_, l) -> a +. self l) 0. layer_ns /. 1000.)
          +. r.Replay.helper_service_us
        in
        Printf.printf "replay: %d requests, %d spans, %d helper jobs -> %s\n"
          r.Replay.requests r.Replay.span_count r.Replay.helper_jobs spans_path;
        List.map (fun (m, l) -> Report.m m "ns" (self l)) layer_ns
        @ [
            Report.m "helper.wait_us" "us" r.Replay.helper_wait_us;
            Report.m "helper.service_us" "us" r.Replay.helper_service_us;
            Report.m "trace.unattributed_share" "fraction"
              (1. -. (attributed_us /. server_cpu_us_per_req));
          ]
        @ live
      end
    in
    cleanup ();
    let correct = failed = 0 && warm_failed = 0 && scrape_ok in
    let provenance =
      [
        ("workload", Report.json_string (Workload.to_string name));
        ("seed", string_of_int !seed);
        ("seconds", string_of_int !seconds);
        ("window_s", Report.num window);
        ("generator", Printf.sprintf "\"closed loop, %d processes x 1 keep-alive connection\"" connections);
        ("nproc", string_of_int (Serverproc.online_cpus ()));
        ("cpus_allowed", Report.json_string (Serverproc.cpus_allowed ()));
        ("rev", Report.json_string !rev);
        ("reference_client_us", Report.num (Workload.reference_client_us name));
        ( "flash_serve_flags",
          "[" ^ String.concat ", " (List.map Report.json_string srv.Serverproc.flags) ^ "]" );
        ("setup_samples_s", "[" ^ String.concat ", " (List.map Report.num setups) ^ "]");
        ("latency_samples", string_of_int attempted);
        ("slices", string_of_int nslices);
        ("min_beyond_p99_per_slice", string_of_int min_beyond_p99);
        ("warm_failed", string_of_int warm_failed);
        ( "by_slice",
          "{"
          ^ String.concat ", "
              (List.map
                 (fun (k, v) ->
                   Report.json_string k ^ ": [" ^ String.concat ", " (List.map Report.num v) ^ "]")
                 by_slice)
          ^ "}" );
      ]
    in
    Printf.printf "workload %s seed %d: %d s window, nproc %d, on CPUs %s, rev %s\n"
      (Workload.to_string name) !seed !seconds
      (Serverproc.online_cpus ())
      (Serverproc.cpus_allowed ()) !rev;
    Printf.printf "flash_serve %s\n" (String.concat " " srv.Serverproc.flags);
    Printf.printf "end to end (%d attempted, %d failed, %d warm-up failures):\n" attempted failed
      warm_failed;
    Printf.printf "(rates and times at the reference host speed, %g us of generator CPU per request)\n"
      (Workload.reference_client_us name);
    Report.print_table (end_to_end @ reported_only);
    Printf.printf "  rps by slice, as measured: %s\n"
      (String.concat " " (List.map (Printf.sprintf "%.0f") (List.assoc "rps" measured)));
    if traced then begin
      print_endline "per layer:";
      Report.print_table per_layer
    end;
    let results = Filename.concat !workdir "results" in
    mkdir_p results;
    let oc =
      open_out
        (Filename.concat results
           (Printf.sprintf "%s-seed%d-trace%d.json" (Workload.to_string name) !seed !trace))
    in
    Printf.fprintf oc "{%s, \"end_to_end\": %s, \"per_layer\": %s}\n"
      (String.concat ", " (List.map (fun (k, v) -> Report.json_string k ^ ": " ^ v) provenance))
      (Report.metrics_json (end_to_end @ reported_only))
      (Report.metrics_json per_layer);
    close_out oc;
    print_endline
      (Report.result_line ~correct ~attempted ~failed
         (if traced then per_layer else end_to_end))
  with
  | Failure m -> fail_exit m
  | Unix.Unix_error (e, f, a) -> fail_exit (Printf.sprintf "%s(%s): %s" f a (Unix.error_message e))
  | Sys_error m -> fail_exit m
