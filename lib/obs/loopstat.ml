type t = {
  threshold : float;
  mutable wakeups : int;
  mutable ready_fds : int;
  mutable wait_time : float;
  mutable work_time : float;
  mutable timer_fires : int;
  mutable stalls : int;
  mutable max_turn : float;
}

let create ~threshold =
  if not (threshold > 0.) then
    invalid_arg "Obs.Loopstat.create: threshold <= 0";
  {
    threshold;
    wakeups = 0;
    ready_fds = 0;
    wait_time = 0.;
    work_time = 0.;
    timer_fires = 0;
    stalls = 0;
    max_turn = 0.;
  }

let wake t ~waited ~ready =
  t.wakeups <- t.wakeups + 1;
  t.ready_fds <- t.ready_fds + ready;
  t.wait_time <- t.wait_time +. Float.max 0. waited

let work t ~spent =
  let spent = Float.max 0. spent in
  t.work_time <- t.work_time +. spent;
  if spent > t.max_turn then t.max_turn <- spent;
  if spent > t.threshold then t.stalls <- t.stalls + 1

let timers_fired t n = t.timer_fires <- t.timer_fires + n
let wakeups t = t.wakeups
let ready_fds t = t.ready_fds
let wait_time t = t.wait_time
let work_time t = t.work_time
let timer_fires t = t.timer_fires
let stalls t = t.stalls
let max_turn t = t.max_turn
