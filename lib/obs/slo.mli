(** Latency SLO evaluation over windowed latency histograms.

    Error-budget burn is the fraction of the most recent
    traffic-bearing windows whose windowed latency percentile exceeded
    the target.  Empty windows are skipped: an idle server neither
    heals nor burns budget.  States: burn within the budget is
    [Healthy]; past it but under 3x is [Degraded]; at or past 3x (or
    any violation under a zero budget) is [Breached]. *)

type state = Healthy | Degraded | Breached

type t

(** Defaults: p99, 50 ms target, 5% budget over the last 60
    traffic-bearing windows.
    @raise Invalid_argument on a quantile outside (0, 100], a
    non-positive target, a budget outside [0, 1] or horizon < 1. *)
val create :
  ?quantile:float ->
  ?target_ms:float ->
  ?budget:float ->
  ?horizon:int ->
  unit ->
  t

val quantile : t -> float
val target_ms : t -> float
val budget : t -> float

(** Feed one closed window's latency histogram, in seconds (the
    server passes its flight-recorder windows). *)
val observe : t -> Histogram.t -> unit

(** Traffic-bearing windows currently in the horizon. *)
val windows : t -> int

val burn : t -> float
val state : t -> state

(** 0 = healthy, 1 = degraded, 2 = breached (gauge-friendly). *)
val state_code : t -> int
