(* ---------------- Zipf ---------------- *)

let test_zipf_probabilities_sum () =
  let z = Workload.Zipf.create ~n:100 ~alpha:0.9 in
  let total = ref 0. in
  for r = 0 to 99 do
    total := !total +. Workload.Zipf.probability z r
  done;
  Helpers.check_float ~msg:"sums to 1" ~eps:1e-9 1.0 !total

let test_zipf_monotone () =
  let z = Workload.Zipf.create ~n:50 ~alpha:1.0 in
  for r = 1 to 49 do
    if Workload.Zipf.probability z r > Workload.Zipf.probability z (r - 1) then
      Alcotest.failf "rank %d more popular than %d" r (r - 1)
  done

let test_zipf_sampling_skew () =
  let z = Workload.Zipf.create ~n:1000 ~alpha:1.0 in
  let rng = Sim.Rng.create ~seed:3 in
  let top10 = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Workload.Zipf.sample z rng < 10 then incr top10
  done;
  let frac = float_of_int !top10 /. float_of_int n in
  (* With alpha=1 over 1000 ranks, the top 10 carry ~39% of requests. *)
  if frac < 0.3 || frac > 0.5 then Alcotest.failf "top-10 fraction %f" frac

let test_zipf_alpha_zero_uniform () =
  let z = Workload.Zipf.create ~n:4 ~alpha:0. in
  for r = 0 to 3 do
    Helpers.check_float ~msg:"uniform" ~eps:1e-9 0.25 (Workload.Zipf.probability z r)
  done

let prop_zipf_sample_range =
  Helpers.qcheck_case ~name:"zipf samples within range"
    QCheck.(pair (int_range 1 200) (float_range 0. 2.))
    (fun (n, alpha) ->
      let z = Workload.Zipf.create ~n ~alpha in
      let rng = Sim.Rng.create ~seed:1 in
      let ok = ref true in
      for _ = 1 to 100 do
        let s = Workload.Zipf.sample z rng in
        if s < 0 || s >= n then ok := false
      done;
      !ok)

(* ---------------- Fileset ---------------- *)

let test_fileset_deterministic () =
  let a = Workload.Fileset.generate (Workload.Fileset.cs_like ~files:100 ~seed:5) in
  let b = Workload.Fileset.generate (Workload.Fileset.cs_like ~files:100 ~seed:5) in
  Alcotest.(check bool) "same sizes" true (a.Workload.Fileset.sizes = b.Workload.Fileset.sizes);
  Alcotest.(check bool) "same paths" true (a.Workload.Fileset.paths = b.Workload.Fileset.paths)

let test_fileset_sizes_bounded () =
  let spec = Workload.Fileset.ece_like ~files:500 ~seed:6 in
  let fs = Workload.Fileset.generate spec in
  Array.iter
    (fun s ->
      if s < spec.Workload.Fileset.min_size || s > spec.Workload.Fileset.max_size
      then Alcotest.failf "size %d out of bounds" s)
    fs.Workload.Fileset.sizes

let test_fileset_unique_paths () =
  let fs =
    Workload.Fileset.generate (Workload.Fileset.owlnet_like ~files:300 ~seed:7)
  in
  let seen = Hashtbl.create 300 in
  Array.iter
    (fun p ->
      if Hashtbl.mem seen p then Alcotest.failf "duplicate path %s" p;
      Hashtbl.replace seen p ())
    fs.Workload.Fileset.paths

let test_fileset_truncate () =
  let fs =
    Workload.Fileset.generate (Workload.Fileset.ece_like ~files:1000 ~seed:8)
  in
  let target = Workload.Fileset.total_bytes fs / 3 in
  let truncated = Workload.Fileset.truncate fs ~dataset_bytes:target in
  Alcotest.(check bool) "within target" true
    (Workload.Fileset.total_bytes truncated <= target);
  Alcotest.(check bool) "non-empty" true (Workload.Fileset.file_count truncated > 0);
  (* Prefix property: kept files are the head of the original. *)
  Alcotest.(check string) "prefix kept"
    fs.Workload.Fileset.paths.(0)
    truncated.Workload.Fileset.paths.(0)

let prop_truncate_monotone =
  Helpers.qcheck_case ~count:50 ~name:"larger targets keep more files"
    QCheck.(pair (int_range 10_000 5_000_000) (int_range 10_000 5_000_000))
    (fun (t1, t2) ->
      let fs =
        Workload.Fileset.generate (Workload.Fileset.ece_like ~files:300 ~seed:9)
      in
      let small = min t1 t2 and large = max t1 t2 in
      Workload.Fileset.file_count (Workload.Fileset.truncate fs ~dataset_bytes:small)
      <= Workload.Fileset.file_count
           (Workload.Fileset.truncate fs ~dataset_bytes:large))

let test_fileset_install () =
  Helpers.run_sim (fun engine ->
      let kernel = Simos.Kernel.create engine Simos.Os_profile.freebsd in
      let fs =
        Workload.Fileset.generate (Workload.Fileset.owlnet_like ~files:50 ~seed:10)
      in
      let files = Workload.Fileset.install fs (Simos.Kernel.fs kernel) in
      Alcotest.(check int) "all installed" 50 (Array.length files);
      Alcotest.(check int) "fs agrees" 50
        (Simos.Fs.file_count (Simos.Kernel.fs kernel)))

(* ---------------- Trace ---------------- *)

let test_trace_deterministic () =
  let fs = Workload.Fileset.generate (Workload.Fileset.cs_like ~files:100 ~seed:1) in
  let a = Workload.Trace.generate fs ~length:1000 ~alpha:1.0 ~seed:2 in
  let b = Workload.Trace.generate fs ~length:1000 ~alpha:1.0 ~seed:2 in
  Alcotest.(check bool) "same stream" true
    (a.Workload.Trace.requests = b.Workload.Trace.requests)

let test_trace_paths_valid () =
  let fs = Workload.Fileset.generate (Workload.Fileset.cs_like ~files:100 ~seed:1) in
  let t = Workload.Trace.generate fs ~length:500 ~alpha:0.9 ~seed:3 in
  for i = 0 to 499 do
    let p = Workload.Trace.request_path t i in
    Alcotest.(check bool) "path exists in fileset" true
      (Array.exists (( = ) p) fs.Workload.Fileset.paths)
  done

let test_trace_wraps () =
  let fs = Workload.Fileset.generate (Workload.Fileset.cs_like ~files:10 ~seed:1) in
  let t = Workload.Trace.generate fs ~length:7 ~alpha:1.0 ~seed:4 in
  Alcotest.(check string) "wraparound" (Workload.Trace.request_path t 0)
    (Workload.Trace.request_path t 7)

let test_trace_footprint_bounds () =
  let fs = Workload.Fileset.generate (Workload.Fileset.cs_like ~files:50 ~seed:1) in
  let t = Workload.Trace.generate fs ~length:2000 ~alpha:0.8 ~seed:5 in
  let fp = Workload.Trace.footprint_bytes t in
  Alcotest.(check bool) "positive" true (fp > 0);
  Alcotest.(check bool) "at most total" true
    (fp <= Workload.Fileset.total_bytes fs);
  Alcotest.(check bool) "distinct at most files" true
    (Workload.Trace.distinct_files t <= 50);
  Alcotest.(check bool) "mean transfer positive" true
    (Workload.Trace.mean_transfer t > 0.)

(* ---------------- CLF export / import ---------------- *)

let test_clf_line_parse () =
  Alcotest.(check (option (pair string int)))
    "well-formed"
    (Some ("/a/b.html", 1234))
    (Workload.Trace.parse_clf_line
       "10.0.0.1 - - [Sun, 06 Nov 1994 08:49:37 GMT] \"GET /a/b.html HTTP/1.0\" 200 1234");
  Alcotest.(check (option (pair string int))) "garbage" None
    (Workload.Trace.parse_clf_line "not a log line");
  Alcotest.(check (option (pair string int))) "bad bytes" None
    (Workload.Trace.parse_clf_line
       "10.0.0.1 - - [d] \"GET /x HTTP/1.0\" 200 many")

let test_clf_roundtrip () =
  let fileset =
    Workload.Fileset.generate (Workload.Fileset.owlnet_like ~files:50 ~seed:17)
  in
  let trace = Workload.Trace.generate fileset ~length:500 ~alpha:1.0 ~seed:18 in
  let path = Filename.temp_file "flash_clf" ".log" in
  Workload.Trace.save_clf trace ~path;
  let loaded = Workload.Trace.load_clf ~path in
  Sys.remove path;
  Alcotest.(check int) "same length" (Workload.Trace.length trace)
    (Workload.Trace.length loaded);
  (* Same request sequence (paths and sizes). *)
  for i = 0 to 499 do
    Alcotest.(check string)
      (Printf.sprintf "path %d" i)
      (Workload.Trace.request_path trace i)
      (Workload.Trace.request_path loaded i);
    Alcotest.(check int)
      (Printf.sprintf "size %d" i)
      (Workload.Trace.request_size trace i)
      (Workload.Trace.request_size loaded i)
  done

let test_clf_load_replayable () =
  (* A loaded trace must install and replay against a simulated server. *)
  let fileset =
    Workload.Fileset.generate (Workload.Fileset.owlnet_like ~files:20 ~seed:19)
  in
  let trace = Workload.Trace.generate fileset ~length:200 ~alpha:1.0 ~seed:20 in
  let path = Filename.temp_file "flash_clf2" ".log" in
  Workload.Trace.save_clf trace ~path;
  let loaded = Workload.Trace.load_clf ~path in
  Sys.remove path;
  let r =
    Workload.Driver.run ~clients:4 ~warmup:0.5 ~duration:1.
      ~profile:Simos.Os_profile.freebsd ~server:Flash.Config.flash
      ~fileset:loaded.Workload.Trace.fileset
      ~next:(fun i -> Workload.Trace.request_path loaded i)
      ()
  in
  Alcotest.(check int) "no errors replaying imported log" 0
    r.Workload.Driver.errors;
  Alcotest.(check bool) "throughput positive" true
    (r.Workload.Driver.requests_per_s > 0.)

(* ---------------- Driver ---------------- *)

let test_driver_single_file_run () =
  let fileset =
    {
      Workload.Fileset.spec = Workload.Fileset.owlnet_like ~files:1 ~seed:1;
      paths = [| "/one.html" |];
      sizes = [| 8192 |];
    }
  in
  let r =
    Workload.Driver.run ~clients:8 ~warmup:0.5 ~duration:1.5
      ~profile:Simos.Os_profile.freebsd ~server:Flash.Config.flash ~fileset
      ~next:(fun _ -> "/one.html")
      ()
  in
  Alcotest.(check bool) "throughput positive" true (r.Workload.Driver.mbits_per_s > 0.);
  Alcotest.(check bool) "requests positive" true
    (r.Workload.Driver.requests_per_s > 100.);
  Alcotest.(check int) "no errors" 0 r.Workload.Driver.errors;
  Alcotest.(check string) "label" "Flash" r.Workload.Driver.label;
  Alcotest.(check bool) "latency percentiles sane" true
    (r.Workload.Driver.latency_p50_ms > 0.
    && r.Workload.Driver.latency_p50_ms <= r.Workload.Driver.latency_p95_ms);
  (* The recorder's windows tile the measured interval. *)
  Alcotest.(check int) "windows count every completion"
    r.Workload.Driver.completed
    (List.fold_left
       (fun a w ->
         a
         + Obs.Registry.int_value w.Obs.Recorder.samples
             "flash_http_requests_total")
       0 r.Workload.Driver.timeseries)

let test_driver_deterministic () =
  let fileset =
    Workload.Fileset.generate (Workload.Fileset.owlnet_like ~files:20 ~seed:2)
  in
  let trace = Workload.Trace.generate fileset ~length:1000 ~alpha:1.0 ~seed:3 in
  let go () =
    Workload.Driver.run ~seed:42 ~clients:8 ~warmup:0.5 ~duration:1.
      ~profile:Simos.Os_profile.freebsd ~server:Flash.Config.flash_sped ~fileset
      ~next:(fun i -> Workload.Trace.request_path trace i)
      ()
  in
  let a = go () and b = go () in
  Alcotest.(check int) "identical completions" a.Workload.Driver.completed
    b.Workload.Driver.completed

let test_driver_persistent_mode () =
  let fileset =
    Workload.Fileset.generate (Workload.Fileset.owlnet_like ~files:10 ~seed:4)
  in
  let trace = Workload.Trace.generate fileset ~length:500 ~alpha:1.0 ~seed:5 in
  let r =
    Workload.Driver.run ~clients:4 ~persistent:true ~warmup:0.5 ~duration:1.
      ~profile:Simos.Os_profile.freebsd ~server:Flash.Config.flash ~fileset
      ~next:(fun i -> Workload.Trace.request_path trace i)
      ()
  in
  Alcotest.(check bool) "served" true (r.Workload.Driver.completed > 0)

let suite =
  [
    Alcotest.test_case "zipf probabilities sum to 1" `Quick test_zipf_probabilities_sum;
    Alcotest.test_case "zipf monotone" `Quick test_zipf_monotone;
    Alcotest.test_case "zipf sampling skew" `Quick test_zipf_sampling_skew;
    Alcotest.test_case "zipf alpha=0 uniform" `Quick test_zipf_alpha_zero_uniform;
    prop_zipf_sample_range;
    Alcotest.test_case "fileset deterministic" `Quick test_fileset_deterministic;
    Alcotest.test_case "fileset sizes bounded" `Quick test_fileset_sizes_bounded;
    Alcotest.test_case "fileset unique paths" `Quick test_fileset_unique_paths;
    Alcotest.test_case "fileset truncate" `Quick test_fileset_truncate;
    prop_truncate_monotone;
    Alcotest.test_case "fileset install" `Quick test_fileset_install;
    Alcotest.test_case "trace deterministic" `Quick test_trace_deterministic;
    Alcotest.test_case "trace paths valid" `Quick test_trace_paths_valid;
    Alcotest.test_case "trace wraps around" `Quick test_trace_wraps;
    Alcotest.test_case "trace footprint bounds" `Quick test_trace_footprint_bounds;
    Alcotest.test_case "CLF line parsing" `Quick test_clf_line_parse;
    Alcotest.test_case "CLF roundtrip" `Quick test_clf_roundtrip;
    Alcotest.test_case "imported log replayable" `Slow test_clf_load_replayable;
    Alcotest.test_case "driver single-file run" `Slow test_driver_single_file_run;
    Alcotest.test_case "driver deterministic" `Slow test_driver_deterministic;
    Alcotest.test_case "driver persistent mode" `Slow test_driver_persistent_mode;
  ]
