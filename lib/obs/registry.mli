(** The unified metrics registry.

    Every counter, gauge and histogram a server exposes is registered
    once, under a stable Prometheus-style name (e.g.
    [flash_http_requests_total]) with optional labels, together with a
    closure reading the live value.  Rendering — the human status page,
    its JSON view, and [GET /metrics] exposition — happens over one
    {!collect} walk, so the surfaces cannot drift: a metric registered
    here appears in all of them, and nothing appears anywhere else.

    Registration is not thread-safe (do it at server start); [collect]
    only calls the read closures, whose own synchronisation is the
    caller's (the live server collects under its observability lock). *)

type labels = (string * string) list

type value =
  | Counter of int  (** cumulative, monotone *)
  | Gauge of float  (** instantaneous *)
  | Hist of Histogram.t  (** snapshot of a log-bucketed histogram *)
  | Info  (** constant 1; the labels carry the payload *)

type sample = {
  name : string;
  help : string;
  labels : labels;  (** sorted by label name *)
  value : value;
}

type t

val create : unit -> t

(** Register one series.  Names must match
    [[a-zA-Z_:][a-zA-Z0-9_:]*]; label names [[a-zA-Z][a-zA-Z0-9_]*].
    @raise Invalid_argument on an invalid name, duplicate label names,
    or a (name, labels) pair already registered. *)
val counter :
  t -> name:string -> help:string -> ?labels:labels -> (unit -> int) -> unit

val gauge :
  t -> name:string -> help:string -> ?labels:labels -> (unit -> float) -> unit

val histogram :
  t ->
  name:string ->
  help:string ->
  ?labels:labels ->
  (unit -> Histogram.t) ->
  unit

(** A static info metric ([flash_build_info]-style): constant value 1,
    payload in the labels. *)
val info : t -> name:string -> help:string -> labels:labels -> unit

(** Read every registered series, sorted by (name, labels). *)
val collect : t -> sample list

(** Re-sort an assembled sample list into collection order
    (name, labels) — for callers that concatenate several collects. *)
val sort_samples : sample list -> sample list

(** [aggregate ~drop samples] folds samples that collide once the
    [drop] label is stripped (summed-at-snapshot across shards):
    counters and gauges sum, histograms merge, info series dedupe.
    Gauges whose name satisfies [gauge_max] take the max instead of the
    sum (uptime-style values that are not additive).  Result is sorted
    like {!collect}. *)
val aggregate :
  ?gauge_max:(string -> bool) -> drop:string -> sample list -> sample list

(** Lookups by name and exact label set over a collected list, for
    callers that read a few values rather than render the walk.  A
    missing series reads as 0. *)
val find : sample list -> ?labels:labels -> string -> sample option

val int_value : ?labels:labels -> sample list -> string -> int
val float_value : ?labels:labels -> sample list -> string -> float
val hist_value : ?labels:labels -> sample list -> string -> Histogram.t option
