(** Prometheus text exposition (format 0.0.4) rendered from a registry
    walk, plus a strict parser/validator shared by the tests and the CI
    lint step. *)

(** The fixed cumulative bucket ladder, in seconds.  Stable across
    scrapes regardless of how the underlying log-bucketed histogram has
    grown. *)
val le_edges : float list

(** Render collected samples as exposition text.  Histogram samples
    expand into [_bucket] (cumulative, [le]-labelled, ending at [+Inf]),
    [_sum] and [_count] series.  Label values are escaped per the
    format. *)
val render : Registry.sample list -> string

(** [key name labels] is a series as {!render} spells it: the name, then
    any labels in braces with their values escaped. *)
val key : string -> (string * string) list -> string

(** The flat listing behind [/server-status]: one [(key, value)] row per
    series, keyed by {!key} and valued in {!render}'s number format, in
    walk order.  A histogram lists its [_count] and [_sum] rows, then a
    row for each of [quantile="0.5"], ["0.9"], ["0.99"] and ["1"] (its
    own labels first), read from {!Histogram.percentile}; its bucket
    ladder stays in {!render}.  Keys are as unique as the walk's
    (name, labels) pairs. *)
val listing : Registry.sample list -> (string * string) list

(** The listing as a page: [key value] lines, or with [~json] one flat
    object with the same keys in the same order. *)
val render_listing : json:bool -> Registry.sample list -> string

type series = {
  s_name : string;  (** full sample name, e.g. [foo_bucket] *)
  s_labels : (string * string) list;
  s_value : float;
}

(** One sample line, [key value], or [None] if it does not parse.  A
    text {!render_listing} line reads back the same way. *)
val parse_sample : string -> series option

type family = {
  f_name : string;  (** the [# TYPE] name *)
  f_type : string;  (** counter | gauge | histogram | untyped *)
  f_series : series list;  (** in exposition order *)
}

(** Strictly parse and validate a payload: every sample under a
    preceding [# TYPE]; families contiguous and declared once; label
    sets parseable, sorted by name and unique per series; counters
    non-negative; histograms with in-order [le] buckets, nondecreasing
    cumulative counts, a [+Inf] bucket matching [_count], and a [_sum].
    Returns the parsed families, or the first violation. *)
val validate : string -> (family list, string) result
