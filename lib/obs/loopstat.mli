(** Event-loop wakeup accounting.

    One record per loop, updated by the loop thread only (reads from a
    status renderer race benignly against word-sized stores):
    - {b wakeups}: times the readiness wait returned;
    - {b ready_fds}: total ready descriptors across those wakeups —
      divided by [wakeups] it is the batching factor, the number the
      backend comparison turns on (select pays O(watched) per wakeup,
      epoll O(ready));
    - {b wait_time} vs {b work_time}: seconds blocked in the wait
      versus seconds processing — an idle loop should be all wait;
    - {b timer_fires}: timer-wheel expirations handled. *)

type t

val create : unit -> t

val wake : t -> waited:float -> ready:int -> unit
(** Record one wait returning [ready] descriptors after blocking for
    [waited] seconds. *)

val work : t -> spent:float -> unit
(** Add processing time for the current iteration. *)

val timers_fired : t -> int -> unit

val wakeups : t -> int
val ready_fds : t -> int
val wait_time : t -> float
val work_time : t -> float
val timer_fires : t -> int
val reset : t -> unit
