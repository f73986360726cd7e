(** Request-lifecycle tracing: spans, traces, and a bounded ring buffer
    of completed traces.

    A {e span} is one timed phase of request processing (parse, pathname
    resolution, disk read, response write, ...) attributed to a {e
    track} — the process or helper that did the work ("main-loop",
    "helper", "mp-child-1234").  A {e trace} is the ordered set of spans
    for one request, correlated by a collector-assigned id.  Completed
    traces land in a fixed-size ring buffer (FIFO eviction), from which
    they can be exported as Chrome trace-event JSON — loadable in
    Perfetto or chrome://tracing, one track per process/helper — or
    rendered as a one-line breakdown for a slow-request log.

    Timestamps come from the collector's injectable clock (wall clock in
    the live server, virtual time in the simulator).  Spans opened with
    {!begin_span}/{!end_span} follow stack discipline per trace and are
    therefore always well-nested; {!add_span} splices in a completed
    span measured elsewhere (the simulator's helper work), and {!ingest}
    takes a whole trace finished in another process (an MP child's,
    carried over its report pipe as [trace_data]).

    A trace in flight belongs to one caller: {!start} draws its id from
    an atomic counter and the span calls touch only the trace, so they
    need no lock.  A trace keeps its spans in arrays (stamps unboxed),
    not as a record per span.  Everything that reads or writes the ring
    ({!complete}, {!finish}, {!record}, {!ingest}, {!snapshot},
    {!since}, the counters, {!reset}) must be serialised by the caller
    (the live server takes its obs mutex).

    A live request is written into the ring at its finish.  The live
    server makes no span call while a request is in flight: its
    connection keeps the request's phase {!stamps} (the clock readings
    its request path takes, and the helper's, carried over the
    completion pipe), and when the request finishes {!record} writes
    the whole trace in one call: the spans those stamps imply, with the
    names, tracks, order and depths the span calls would have given
    them.  A request traced this way allocates nothing.

    A trace is written into a ring slot that is reused as the ring
    wraps: stamps unboxed in a float array, the label copied into the
    slot's own buffer, the span arrays grown only when a longer trace
    lands.  No slot storage exists before its first trace, and the ring
    keeps nothing the finished trace allocated, so a minor collection
    promotes none of it.  [trace_data] is built only when something
    reads the ring. *)

type t
(** A collector: clock, ring buffer and id allocator. *)

type trace
(** One request's in-progress trace. *)

type span
(** An open span handle; close it with {!end_span}. *)

type span_data = {
  name : string;
  track : string;  (** which process/helper did the work *)
  t_start : float;  (** collector-clock seconds *)
  t_stop : float;
  depth : int;  (** nesting depth at [begin_span] time *)
}

type trace_data = {
  id : int;
  label : string;  (** e.g. ["GET /index.html"] *)
  t_begin : float;
  t_end : float;
  spans : span_data list;  (** in start order *)
  truncated : int;  (** spans dropped by the per-trace bound *)
}

(** [create ~clock ?capacity ?max_spans ?track ()] — [clock] supplies
    timestamps (wall or simulated; [Obs] has no clock of its own),
    [capacity] bounds the completed-trace ring (default 256),
    [max_spans] the spans kept per trace (default 64), [track] is the
    default attribution for spans that do not name one (default
    ["main-loop"]).
    @raise Invalid_argument if [capacity] or [max_spans] < 1. *)
val create :
  clock:(unit -> float) ->
  ?capacity:int ->
  ?max_spans:int ->
  ?track:string ->
  unit ->
  t

val capacity : t -> int
val max_spans : t -> int
val now : t -> float

(** [start t ?at ?label ()] opens a trace beginning at [at] (default
    now) with a fresh id. *)
val start : t -> ?at:float -> ?label:string -> unit -> trace

(** Open a span at [at] (default now).  Returns a handle even when the
    per-trace bound is hit (the span is then counted in [truncated] and
    otherwise ignored). *)
val begin_span : t -> trace -> ?track:string -> ?at:float -> string -> span

(** Close a span at [at] (default now).  Any spans opened inside it and
    not yet closed are closed at the same instant (nesting stays
    well-formed).  Closing a closed span is a no-op. *)
val end_span : t -> ?at:float -> span -> unit

(** Splice in a completed span with explicit boundaries — work measured
    in another process/thread, stitched into this request's trace. *)
val add_span :
  t -> ?track:string -> name:string -> start:float -> stop:float -> trace -> unit

(** Zero-duration marker span (accept, keep-alive reuse, close) at [at]
    (default now). *)
val instant : t -> trace -> ?track:string -> ?at:float -> string -> unit

(** Close the trace at [at] (default now): remaining open spans are
    closed and the trace is copied into the ring (evicting the oldest
    when full).  Completing a completed trace is a no-op. *)
val complete : t -> ?at:float -> trace -> unit

(** {!complete}, then the trace's data. *)
val finish : t -> ?at:float -> trace -> trace_data

(** {2 A live request} *)

(** One request's phase stamps, in collector-clock seconds; [nan] marks
    a phase the request did not reach.  A connection keeps one record
    and reuses it from one request to the next.  Its fields are all
    floats, so each is stored unboxed and setting one allocates
    nothing. *)
type stamps = {
  mutable accepted : float;
      (** the connection's accept, kept for its first request only:
          that trace reaches back to it *)
  mutable head : float;  (** first byte of the head *)
  mutable parsed : float;  (** head parsed *)
  mutable looked_up : float;  (** pathname translation and cache lookup done *)
  mutable work_start : float;  (** the loop's own work: a fill, a disk read, CGI *)
  mutable work_stop : float;
  mutable enqueued : float;  (** a helper's job: queued, begun, done *)
  mutable started : float;
  mutable finished : float;
  mutable ready : float;  (** response queued: the write begins *)
  mutable ended : float;  (** response out, or the connection gone *)
}

(** A record with every stamp [nan]. *)
val stamps : unit -> stamps

(** Set every stamp but [accepted] back to [nan], for the connection's
    next request. *)
val clear : stamps -> unit

(** [record t st ~track ~work ~meth ~target ~closing] writes the request
    [st] stamped into the ring as one trace, under a fresh id, labelled
    ["meth target"] ([target] alone when [meth] is empty), from [head]
    (or [accepted]) to [ended].  Its spans, on [track] but for the
    helper's two:
    - ["accept"] at [accepted], or else ["keepalive-reuse"] at [head];
    - ["parse"] from [head] to [parsed];
    - ["resolve"] from [parsed] to [looked_up];
    - the work phase named [work] ([""]: none) from [work_start] to
      [work_stop];
    - ["helper-queue"] and ["disk-read"] on track ["helper"], from
      [enqueued] to [started] to [finished];
    - ["write"] from [ready] to [ended];
    - ["close"] at [ended] when [closing].

    A phase the request did not reach is left out.  A head that never
    parsed, or work cut short by a close, was still open: its span ends
    at [ended], and the spans begun inside it sit one deeper.  Past
    [max_spans] the rest are counted in [truncated].  Allocates nothing
    once the ring has wrapped onto slots big enough. *)
val record :
  t ->
  stamps ->
  track:string ->
  work:string ->
  meth:string ->
  target:string ->
  closing:bool ->
  unit

(** Push an externally assembled trace (e.g. decoded from another
    process) into the ring under a fresh id. *)
val ingest : t -> trace_data -> unit

(** Traces finished or ingested so far. *)
val completed : t -> int

(** Traces evicted from the ring. *)
val evicted : t -> int

(** Ring contents, oldest first. *)
val snapshot : t -> trace_data list

(** [since t mark]: the ring entries completed after the first [mark]
    (a past {!completed} count), oldest first — at most the ring's
    length of them. *)
val since : t -> int -> trace_data list

val reset : t -> unit

(** {2 Export} *)

(** Traces (a ring's {!snapshot}, or several rings' merged) as a Chrome
    trace-event JSON document ([{"traceEvents":[...]}]): one complete
    ("ph":"X") event per span, timestamps in microseconds relative to
    the earliest trace, plus process-name metadata so each distinct
    track renders as its own Perfetto track. *)
val to_chrome_json : trace_data list -> string

(** One-line span breakdown, for the slow-request log: label, duration
    from [since] (default [t_begin]) to [t_end], then each span as
    [name dur@track]. *)
val summary : ?since:float -> trace_data -> string
