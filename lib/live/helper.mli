(** Disk helpers for the live AMPED server.

    Helpers execute the potentially blocking disk work — [stat] plus
    reading the file (which also warms the OS page cache) — so the main
    select loop never blocks on disk.  Following §3.4, helpers here are
    kernel threads inside the server process: OCaml's threads release
    the runtime lock during blocking syscalls, giving exactly the
    asymmetric structure the paper describes, without the fork/threads
    interaction hazards of child processes.  Completion notifications
    are written to a pipe so the main loop picks them up in [select] —
    like any other IO event.  The loop sends a cache miss here only
    when it might block: a path no helper has found yet, a file above
    the cache's size limit, or one whose pages [mincore] does not
    vouch for ({!Server.mode}'s [Amped]).

    The pool is instrumented: a queue-depth gauge (queued plus
    in-flight jobs) and a log-bucketed histogram of dispatch-to-
    completion job latency, both measured with an injectable clock.

    Besides the client queue there is a {e low-priority lane} for
    predictive prefetch ({!dispatch_low}): its jobs run only when no
    client job is waiting, and at most [helpers - 1] workers may be on
    prefetch work at once, so one worker is always free for the next
    client-triggered read.  Low jobs are excluded from the depth gauge
    and latency histogram — those measure the client path the guard
    bounds and the bench asserts on — and are accounted by their own
    counters instead. *)

type result = Found of { size : int; mtime : float } | Missing

(** One finished job, with its span boundaries on the helper's clock:
    [enqueued, started] is queue wait, [started, finished] the blocking
    disk work.  The main loop stitches these into the waiting request's
    trace as helper-attributed spans. *)
type completion = {
  key : int;
  result : result;
  enqueued : float;
  started : float;
  finished : float;
}

type t

(** [create ?clock ?slow_read ?max_queued ~helpers ()] starts the
    pool.  [clock] (default [Unix.gettimeofday]) timestamps jobs for
    the latency histogram.  [slow_read], when given, is invoked in
    helper context with the path before each cold file read — a
    fault-injection seam that simulates slow media (tests use it to
    prove the event loop keeps running while helpers block).
    [max_queued] bounds the number of *queued* (not yet started) jobs;
    a dispatch past the bound is refused so the caller can answer an
    early 503 instead of letting the backlog grow without limit.
    [max_low_queued] (default 64) is the same bound for the
    low-priority prefetch lane. *)
val create :
  ?clock:(unit -> float) ->
  ?slow_read:(string -> unit) ->
  ?max_queued:int ->
  ?max_low_queued:int ->
  helpers:int ->
  unit ->
  t

(** File descriptor the main loop should select for readability. *)
val notify_fd : t -> Unix.file_descr

(** [dispatch t ~key ~path] queues the job; a completion tagged [key]
    will appear on the notify pipe.  Returns [false] — and enqueues
    nothing — when the queued backlog is at [max_queued]. *)
val dispatch : t -> key:int -> path:string -> bool

(** [dispatch_low t ~key ~path] queues a prefetch job on the
    low-priority lane.  It will only be picked up when the client queue
    is drained and a worker can be spared; its completion arrives over
    the same notify pipe (callers use negative keys to tell prefetches
    from client jobs).  Returns [false] when [max_low_queued] jobs are
    already waiting. *)
val dispatch_low : t -> key:int -> path:string -> bool

(** Drain all completions currently readable (non-blocking). *)
val drain : t -> completion list

val dispatched : t -> int

(** Jobs currently queued or running. *)
val queue_depth : t -> int

(** Deepest the queue has ever been. *)
val queue_depth_hwm : t -> int

(** Jobs waiting in the queue, excluding any a worker has started. *)
val queued : t -> int

(** Jobs a worker has popped but not yet completed. *)
val in_flight : t -> int

(** Dispatches refused by the [max_queued] bound. *)
val rejected : t -> int

(** Low-priority jobs accepted by {!dispatch_low}. *)
val low_dispatched : t -> int

(** Low-priority dispatches refused by the [max_low_queued] bound. *)
val low_rejected : t -> int

(** Low-priority jobs whose disk work has finished. *)
val low_completed : t -> int

(** Low-priority jobs queued or running. *)
val low_queued : t -> int

(** Snapshot of the dispatch-to-completion latency histogram
    (seconds). *)
val job_latency : t -> Obs.Histogram.t

val shutdown : t -> unit
