(* The float accumulators live unboxed in [times] (wait, work, longest
   turn), so recording a turn allocates nothing. *)
type t = {
  threshold : float;
  mutable wakeups : int;
  mutable ready_fds : int;
  times : Float.Array.t;
  mutable timer_fires : int;
  mutable stalls : int;
}

let i_wait = 0
let i_work = 1
let i_max = 2

let create ~threshold =
  if not (threshold > 0.) then
    invalid_arg "Obs.Loopstat.create: threshold <= 0";
  {
    threshold;
    wakeups = 0;
    ready_fds = 0;
    times = Float.Array.make 3 0.;
    timer_fires = 0;
    stalls = 0;
  }

let add t i x = Float.Array.set t.times i (Float.Array.get t.times i +. x)

let wake t ~waited ~ready =
  t.wakeups <- t.wakeups + 1;
  t.ready_fds <- t.ready_fds + ready;
  add t i_wait (Float.max 0. waited)

let work t ~spent =
  let spent = Float.max 0. spent in
  add t i_work spent;
  if spent > Float.Array.get t.times i_max then
    Float.Array.set t.times i_max spent;
  if spent > t.threshold then t.stalls <- t.stalls + 1

let timers_fired t n = t.timer_fires <- t.timer_fires + n
let wakeups t = t.wakeups
let ready_fds t = t.ready_fds
let wait_time t = Float.Array.get t.times i_wait
let work_time t = Float.Array.get t.times i_work
let timer_fires t = t.timer_fires
let stalls t = t.stalls
let max_turn t = Float.Array.get t.times i_max
