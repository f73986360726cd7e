(** Flight recorder: a fixed-size ring of per-window rollups of a
    registry walk.

    The recorder is clocked externally ([now] is injected, so the
    simulator drives it from the virtual clock) and reads a walk through
    a closure.  It names no metric: every rollup is the walk at window
    close diffed against the walk at window open, series by series.
    Windows close lazily on {!tick} — a blocked or idle period becomes
    one long window whose [dur] carries the truth rather than a backlog
    of empty windows. *)

(** One closed window.  In [samples], counters and histograms hold the
    window's deltas (a series absent from the previous walk diffs
    against zero); gauges and info series hold their values at close.
    A windowed histogram is the exact bucket/count/sum diff of the two
    walks, so merging every rollup in the ring plus the pre-ring
    remainder reproduces the cumulative histogram. *)
type rollup = {
  start : float;
  dur : float;  (** > 0; rates divide by it *)
  samples : Registry.sample list;  (** in the walk's order *)
}

type t

(** [create ~now ~read ()] — [capacity] rollups are retained (default
    120), windows are [interval] seconds (default 1.0).  [read] is
    called at creation and at every window close; the histograms it
    returns must be private copies (the recorder keeps them).
    [on_rollup] observes each closed window (the SLO evaluator hooks
    here).
    @raise Invalid_argument if [capacity < 1] or [interval <= 0]. *)
val create :
  ?capacity:int ->
  ?interval:float ->
  now:(unit -> float) ->
  read:(unit -> Registry.sample list) ->
  ?on_rollup:(rollup -> unit) ->
  unit ->
  t

val capacity : t -> int
val interval : t -> float

(** Close the current window if at least [interval] has elapsed by [now]
    (default: read the clock). *)
val tick : ?now:float -> t -> unit

(** Close the current window unconditionally (dump paths want the
    partial tail). *)
val flush : t -> unit

(** Newest [n] rollups, oldest first.  Ticks first. *)
val window : t -> int -> rollup list

(** Every retained rollup, oldest first.  Ticks first. *)
val all : t -> rollup list

(** JSON array shared by [?window=N], the SIGUSR1 dump and the
    simulator's time series.  Each rollup is one flat object: [t] and
    [dur] in seconds at millisecond resolution, then the rows of
    {!Exposition.listing} over its samples, keyed exactly as
    [/server-status] and [/metrics] spell them. *)
val rollups_json : rollup list -> string

(** Flushes, then renders [{"capacity":…, "interval":…, "rollups":[…]}]. *)
val dump_json : t -> string
