(** Event-loop stall watchdog.

    An event-driven server must never block between [select] calls; a
    single synchronous disk read freezes every connection (the SPED
    pathology of §3.3 of the Flash paper).  The watchdog times each loop
    iteration's *processing* interval: call {!arm} when [select]
    returns, {!check} just before the next [select].  A loop that has
    already read the clock at those points passes its stamps as [?at].  Any interval
    longer than the threshold is counted as a stall; all intervals feed
    a log-bucketed histogram.

    The clock is injected at creation so tests drive it
    deterministically; the library itself never reads wall time. *)

type t

(** [create ~clock ~threshold ()] — [clock] returns monotonically
    non-decreasing seconds, [threshold] is the stall limit in seconds.
    @raise Invalid_argument if [threshold <= 0]. *)
val create : clock:(unit -> float) -> threshold:float -> unit -> t

(** Start timing an iteration at [at] (default: read the clock).
    Re-arming discards the pending one. *)
val arm : ?at:float -> t -> unit

(** Finish the armed iteration at [at] (default: read the clock): record
    its duration, counting a stall if it exceeded the threshold.  No-op
    when not armed. *)
val check : ?at:float -> t -> unit

(** [check] then [arm]: gap-between-beats style for loops with no idle
    wait to exclude. *)
val beat : t -> unit

val threshold : t -> float
val stalls : t -> int

(** Completed iterations observed. *)
val iterations : t -> int

(** Longest iteration seen; [0.] before any. *)
val max_gap : t -> float

(** Most recent iteration; [0.] before any. *)
val last_gap : t -> float

(** Histogram of all iteration durations (live reference, not a
    copy). *)
val gaps : t -> Histogram.t

val reset : t -> unit
