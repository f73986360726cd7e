type t = {
  clock : unit -> float;
  threshold : float;
  gaps : Histogram.t;
  mutable armed : float option;
  mutable stalls : int;
  mutable iterations : int;
  mutable max_gap : float;
  mutable last_gap : float;
}

let create ~clock ~threshold () =
  if not (threshold > 0.) then
    invalid_arg "Obs.Watchdog.create: threshold <= 0";
  {
    clock;
    threshold;
    gaps = Histogram.create ();
    armed = None;
    stalls = 0;
    iterations = 0;
    max_gap = 0.;
    last_gap = 0.;
  }

let stamp t = function Some a -> a | None -> t.clock ()
let arm ?at t = t.armed <- Some (stamp t at)

let check ?at t =
  match t.armed with
  | None -> ()
  | Some t0 ->
      t.armed <- None;
      let gap = stamp t at -. t0 in
      t.iterations <- t.iterations + 1;
      t.last_gap <- gap;
      if gap > t.max_gap then t.max_gap <- gap;
      Histogram.record t.gaps gap;
      if gap > t.threshold then t.stalls <- t.stalls + 1

let beat t =
  check t;
  arm t

let threshold t = t.threshold
let stalls t = t.stalls
let iterations t = t.iterations
let max_gap t = t.max_gap
let last_gap t = t.last_gap
let gaps t = t.gaps

let reset t =
  t.armed <- None;
  t.stalls <- 0;
  t.iterations <- 0;
  t.max_gap <- 0.;
  t.last_gap <- 0.;
  Histogram.reset t.gaps
