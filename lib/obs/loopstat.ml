type t = {
  mutable wakeups : int;
  mutable ready_fds : int;
  mutable wait_time : float;
  mutable work_time : float;
  mutable timer_fires : int;
}

let create () =
  { wakeups = 0; ready_fds = 0; wait_time = 0.; work_time = 0.; timer_fires = 0 }

let wake t ~waited ~ready =
  t.wakeups <- t.wakeups + 1;
  t.ready_fds <- t.ready_fds + ready;
  t.wait_time <- t.wait_time +. Float.max 0. waited

let work t ~spent = t.work_time <- t.work_time +. Float.max 0. spent
let timers_fired t n = t.timer_fires <- t.timer_fires + n
let wakeups t = t.wakeups
let ready_fds t = t.ready_fds
let wait_time t = t.wait_time
let work_time t = t.work_time
let timer_fires t = t.timer_fires

let reset t =
  t.wakeups <- 0;
  t.ready_fds <- 0;
  t.wait_time <- 0.;
  t.work_time <- 0.;
  t.timer_fires <- 0
