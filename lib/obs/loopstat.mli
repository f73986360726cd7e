(** One event loop's turn record.

    A loop turn is one readiness wait followed by the work it woke for.
    The loop passes each turn's two halves in ({!wake}, then {!work}),
    and the record keeps:
    - {b wakeups}: times the readiness wait returned;
    - {b ready_fds}: total ready descriptors across those wakeups —
      divided by [wakeups] it is the batching factor, the number the
      backend comparison turns on (select pays O(watched) per wakeup,
      epoll O(ready));
    - {b wait_time} vs {b work_time}: seconds blocked in the wait
      versus seconds processing — an idle loop should be all wait;
    - {b timer_fires}: timer-wheel expirations handled;
    - {b stalls} and {b max_turn}: turns whose work took longer than
      the threshold, and the longest work seen.  Only the work half
      counts, so a loop idle in its wait never stalls; one that blocks
      between waits — a synchronous disk read, the SPED pathology of
      §3.3 of the Flash paper — does.

    Updated by the loop's own thread only; a metrics reader on another
    thread reads word-sized fields and races benignly.  The record reads
    no clock: the loop times each half and passes the durations in. *)

type t

(** [create ~threshold]: [threshold] is the stall limit in seconds.
    @raise Invalid_argument if [threshold <= 0]. *)
val create : threshold:float -> t

val wake : t -> waited:float -> ready:int -> unit
(** Record one wait returning [ready] descriptors after blocking for
    [waited] seconds. *)

val work : t -> spent:float -> unit
(** Record the work half of one turn: [spent] seconds, a stall when it
    exceeds the threshold. *)

val timers_fired : t -> int -> unit

val wakeups : t -> int
val ready_fds : t -> int
val wait_time : t -> float
val work_time : t -> float
val timer_fires : t -> int
val stalls : t -> int

(** Longest work half seen; [0.] before any. *)
val max_turn : t -> float
