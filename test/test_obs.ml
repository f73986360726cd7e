(* Property and unit tests for the observability library: the
   log-bucketed histogram's quantile guarantees, gauges, and a loop's
   turn record. *)

module H = Obs.Histogram

let record_all h xs = List.iter (H.record h) xs

(* Positive observations spanning six decades — exercises many buckets. *)
let samples =
  QCheck.make
    ~print:QCheck.Print.(list float)
    QCheck.Gen.(list_size (int_range 1 200) (float_range 1e-6 1000.))

let two_sample_sets =
  QCheck.make
    ~print:QCheck.Print.(pair (list float) (list float))
    QCheck.Gen.(
      pair
        (list_size (int_range 0 100) (float_range 1e-6 1000.))
        (list_size (int_range 1 100) (float_range 1e-6 1000.)))

(* p50 <= p90 <= p99 <= max, always. *)
let prop_quantile_monotone =
  Helpers.qcheck_case ~count:300 ~name:"quantiles monotone" samples (fun xs ->
      let h = H.create () in
      record_all h xs;
      let p50 = H.percentile h 50. in
      let p90 = H.percentile h 90. in
      let p99 = H.percentile h 99. in
      p50 <= p90 && p90 <= p99 && p99 <= H.max h)

(* Every observation lands in exactly one bucket. *)
let prop_count_conserved =
  Helpers.qcheck_case ~count:300 ~name:"bucket counts conserve count" samples
    (fun xs ->
      let h = H.create () in
      record_all h xs;
      let bucket_sum =
        List.fold_left (fun acc (_, _, c) -> acc + c) 0 (H.buckets h)
      in
      H.count h = List.length xs && bucket_sum = H.count h)

(* merge a b is indistinguishable from having recorded both streams. *)
let prop_merge_equiv =
  Helpers.qcheck_case ~count:300 ~name:"merge == recording both streams"
    two_sample_sets (fun (xs, ys) ->
      let a = H.create () and b = H.create () and both = H.create () in
      record_all a xs;
      record_all b ys;
      record_all both (xs @ ys);
      let m = H.merge a b in
      let same_p p = H.percentile m p = H.percentile both p in
      H.count m = H.count both
      && Helpers.float_eq ~eps:1e-6 (H.sum m) (H.sum both)
      && H.min m = H.min both
      && H.max m = H.max both
      && List.for_all same_p [ 0.; 25.; 50.; 90.; 99.; 100. ]
      && H.buckets m = H.buckets both)

(* The estimate for the quantile a value realises is off by at most one
   log bucket: v <= estimate <= v * base.  (The tiny slack absorbs
   floating-point rounding in the log-index computation.) *)
let prop_relative_error_bounded =
  Helpers.qcheck_case ~count:300 ~name:"relative error bounded by base" samples
    (fun xs ->
      let h = H.create () in
      record_all h xs;
      let sorted = List.sort Float.compare xs in
      let n = List.length sorted in
      let slack = 1. +. 1e-9 in
      List.for_all2
        (fun v rank ->
          let p = 100. *. (float_of_int rank -. 0.5) /. float_of_int n in
          let est = H.percentile h p in
          v <= est *. slack && est <= v *. H.base h *. slack)
        sorted
        (List.init n (fun i -> i + 1)))

let test_histogram_basics () =
  let h = H.create () in
  Alcotest.(check int) "empty count" 0 (H.count h);
  Alcotest.(check bool) "empty percentile nan" true
    (Float.is_nan (H.percentile h 50.));
  Alcotest.(check bool) "empty mean nan" true (Float.is_nan (H.mean h));
  H.record h 0.010;
  H.record h 0.020;
  H.record h 0.030;
  Alcotest.(check int) "count" 3 (H.count h);
  Helpers.check_float ~msg:"min" 0.010 (H.min h);
  Helpers.check_float ~msg:"max" 0.030 (H.max h);
  Helpers.check_float ~msg:"mean" 0.020 ~eps:1e-12 (H.mean h);
  Alcotest.(check bool) "p100 = max exactly" true (H.percentile h 100. = 0.030);
  H.record h nan;
  H.record h infinity;
  Alcotest.(check int) "non-finite ignored" 3 (H.count h);
  H.reset h;
  Alcotest.(check int) "reset" 0 (H.count h)

let test_histogram_copy_independent () =
  let h = H.create () in
  H.record h 1.;
  let c = H.copy h in
  H.record h 2.;
  Alcotest.(check int) "copy frozen" 1 (H.count c);
  Alcotest.(check int) "original grew" 2 (H.count h)

let test_histogram_invalid () =
  Alcotest.check_raises "base <= 1"
    (Invalid_argument "Obs.Histogram.create: base <= 1") (fun () ->
      ignore (H.create ~base:1. ()));
  Alcotest.check_raises "lo <= 0"
    (Invalid_argument "Obs.Histogram.create: lo <= 0") (fun () ->
      ignore (H.create ~lo:0. ()));
  Alcotest.check_raises "merge mismatch"
    (Invalid_argument "Obs.Histogram.merge: mismatched base/lo") (fun () ->
      ignore (H.merge (H.create ~base:2. ()) (H.create ~base:4. ())));
  let h = H.create () in
  H.record h 1.;
  Alcotest.check_raises "percentile range"
    (Invalid_argument "Obs.Histogram.percentile: p outside [0, 100]") (fun () ->
      ignore (H.percentile h 101.))

let test_gauge () =
  let g = Obs.Gauge.create () in
  Obs.Gauge.incr g;
  Obs.Gauge.incr g;
  Obs.Gauge.decr g;
  Obs.Gauge.incr g;
  Obs.Gauge.incr g;
  Alcotest.(check int) "value" 3 (Obs.Gauge.value g);
  Alcotest.(check int) "hwm" 3 (Obs.Gauge.high_watermark g);
  Obs.Gauge.set g 0;
  Alcotest.(check int) "hwm survives set" 3 (Obs.Gauge.high_watermark g);
  Obs.Gauge.reset g;
  Alcotest.(check int) "reset" 0 (Obs.Gauge.high_watermark g)

let test_counter () =
  let c = Obs.Counter.create () in
  Obs.Counter.incr c;
  Obs.Counter.add c 4;
  Alcotest.(check int) "value" 5 (Obs.Counter.value c)

(* A loop's turn record counts stalls from the work half of each turn
   alone: whatever the loop waited before the work is idleness. *)
let test_loopstat_stalls () =
  let ls = Obs.Loopstat.create ~threshold:0.05 in
  Obs.Loopstat.wake ls ~waited:10. ~ready:1;
  Obs.Loopstat.work ls ~spent:0.01;
  Alcotest.(check int) "a long wait is not a stall" 0 (Obs.Loopstat.stalls ls);
  Obs.Loopstat.wake ls ~waited:0. ~ready:2;
  Obs.Loopstat.work ls ~spent:0.30;
  Alcotest.(check int) "a slow turn is" 1 (Obs.Loopstat.stalls ls);
  Helpers.check_float ~msg:"longest turn" 0.30 ~eps:1e-9
    (Obs.Loopstat.max_turn ls);
  Helpers.check_float ~msg:"work time" 0.31 ~eps:1e-9
    (Obs.Loopstat.work_time ls);
  Helpers.check_float ~msg:"wait time" 10. ~eps:1e-9
    (Obs.Loopstat.wait_time ls);
  Alcotest.(check int) "wakeups" 2 (Obs.Loopstat.wakeups ls);
  Alcotest.(check int) "ready fds" 3 (Obs.Loopstat.ready_fds ls);
  List.iter
    (fun threshold ->
      Alcotest.check_raises
        (Printf.sprintf "threshold %g" threshold)
        (Invalid_argument "Obs.Loopstat.create: threshold <= 0")
        (fun () -> ignore (Obs.Loopstat.create ~threshold)))
    [ 0.; -1. ]

(* The sim's Stat.Quantile is the very same type — a value built there
   interoperates with Obs.Histogram directly. *)
let test_sim_quantile_is_obs_histogram () =
  let q = Sim.Stat.Quantile.create () in
  Sim.Stat.Quantile.record q 0.5;
  let merged = H.merge q (H.create ()) in
  Alcotest.(check int) "shared code path" 1 (H.count merged)

let suite =
  [
    prop_quantile_monotone;
    prop_count_conserved;
    prop_merge_equiv;
    prop_relative_error_bounded;
    Alcotest.test_case "histogram basics" `Quick test_histogram_basics;
    Alcotest.test_case "copy is independent" `Quick
      test_histogram_copy_independent;
    Alcotest.test_case "invalid arguments" `Quick test_histogram_invalid;
    Alcotest.test_case "gauge high-watermark" `Quick test_gauge;
    Alcotest.test_case "counter" `Quick test_counter;
    Alcotest.test_case "loop turns: idle wait is no stall" `Quick
      test_loopstat_stalls;
    Alcotest.test_case "Stat.Quantile = Obs.Histogram" `Quick
      test_sim_quantile_is_obs_histogram;
  ]
