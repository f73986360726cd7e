(** The live Flash web server: a real AMPED HTTP server over the [Unix]
    module.

    One process runs an event loop handling all client IO with
    non-blocking sockets; disk work for uncached files goes to
    {!Helper} threads whose completions arrive on a pipe the loop
    watches.  Every mode runs that same loop and request path; the
    modes differ only in how many loops there are and whether they
    have helpers:
    - [Sped]: no helpers — cold files are read inline, stalling the
      loop exactly as §3.3 describes;
    - [Mp n]: [n] forked processes on a shared listen socket, each
      running its own loop that takes one connection at a time with
      no helpers, so a cold read blocks only that process; the parent
      serves nothing and runs a loop without the listener that folds
      the children's reported walks;
    - [Mt n]: [n] kernel threads doing the same inside one address
      space, sharing the file cache behind a mutex; the main thread
      runs a loop without the listener.

    Conditional GET is honoured (If-Modified-Since - 304), and an
    optional Common Log Format access log can be written.

    Features: GET/HEAD, HTTP/1.0 and 1.1 keep-alive, 32-byte-aligned
    response headers (§5.5), bounded file/header cache, CGI under
    [/cgi-bin/] (each script the leader of its own process group,
    close-delimited output; the group killed and the script reaped
    where its response ends: end of output, a closed connection, or
    300 s), 403 on paths escaping the document root.

    {2 Event readiness and timers}

    Readiness comes from a pluggable {!Evio.Backend} —
    [select]/[poll]/[epoll], chosen by [event_backend] (default
    {!Evio.default}, epoll on Linux) — with per-fd interest kept in sync by
    diffing, so an idle keep-alive connection costs no per-iteration
    work on epoll.  All timeouts (keep-alive idle, CGI deadlines,
    EMFILE backoff) live in a hashed {!Evio.Timer_wheel} owned by the
    loop; the wait blocks exactly until the next deadline instead of
    ticking on a fixed interval, and idle-connection reaping is a
    per-connection timer rescheduled lazily, not an O(connections)
    scan.  Each loop owns its backend instance and wheel (kernel
    interest sets don't share across forks/threads).  When [accept]
    fails with EMFILE/ENFILE the loop parks the listen fd's interest
    and re-arms it by a wheel timer with exponential backoff — load is
    shed without spinning on a connection the process cannot take.
    Each loop keeps its own turn record (wakeups, ready descriptors,
    wait versus work time, timer fires, stalls) and its own 64 KB read
    scratch, which its connections' socket reads and CGI pipe reads
    share, so an idle connection holds no read buffer.

    {2 Send path}

    All response bytes flow through a per-connection {!Sendq} of iovec
    slices flushed with [writev(2)] (§5.5 gather writes).  Every
    regular file is served from a {!File_cache} entry — a read copy
    made once at fill for a file of at most 64 KB, a mapping above
    that — carrying both pre-rendered (keep-alive/close) headers, so a
    cache hit is one [writev] of header + body with zero userspace
    body copies.  A response is written in the loop turn that queued
    it — after the read that parsed its request, the helper completion,
    the CGI chunk or the 408 timer — and write interest is armed only
    after a write that would block (EAGAIN or a short [writev]), so a
    keep-alive request costs one readiness wait.  A connection gets at
    most one such immediate flush per turn; a pipelined request parsed
    after it is answered on the next writable wakeup.  Partial writes
    survive by advancing slice offsets in place; error, status and CGI
    responses ride the same queue.  A file above [max_cached_file] is
    built into an entry the same way (mapped, never copied whole) but
    not inserted: its last queued slice unmaps it once sent.  Under
    AMPED such a file goes to a helper on every miss.  A mapped file
    that shrinks under a send fails the [writev], which ends only that
    connection.  [writev] calls and bytes copied are counted per
    server.

    {2 MP consolidation}

    Each MP child reports to the parent over a pipe of its own, one
    {!Stats_frame} message holding its whole registry walk and the
    traces it finished since its last report.  It reports once right
    after the fork, then at the end of each busy loop turn, but at most
    once per 50 ms: a turn within 50 ms of the last report arms one
    report for when they are up, and an idle child sends nothing.  The
    parent keeps every child's latest walk (a dead child's too, so
    counters never go backwards) and folds them as a sharded server
    folds its shards: counters and gauges summed, except that uptime,
    SLO and guard state, stall threshold, max stall and a paused
    listener take the worst child's, and histograms merge.  That fold is the MP parent's
    [/metrics], status listing, {!stats}, {!latency} and flight
    recorder, and it trails each child by at most 50 ms; gauges are as
    of each child's latest report.  The parent evaluates no SLO of its
    own.

    {2 Observability}

    The server is instrumented with {!Obs}: a log-bucketed per-request
    latency histogram (recorded at response generation in every mode),
    each event loop's turn record ({!Obs.Loopstat}: any turn whose work
    exceeds [stall_threshold] counts as a stall — the measurable
    signature of the SPED pathology), live/total connection gauges,
    cache hit/miss/eviction counters, and helper queue-depth and
    job-latency figures.  The loop series fold every loop the instance
    runs — the main loop and each MP child's or MT worker's — summing
    counters, times and pending timers, taking the longest turn of any
    loop, and reading the listener as paused while any loop's is; so a
    blocked MT worker's stall is its own.  All of it is registered once
    in an {!Obs.Registry}, and every view reads one walk of it:
    [GET /metrics] ({!metrics_body}), the built-in
    [GET /server-status] endpoint, {!stats} and {!latency}.  The status
    endpoint lists the walk generically ({!Obs.Exposition.render_listing}):
    one [key value] line per series, keyed as [/metrics] spells it, or
    with [?json] one flat object with the same keys in the same order.
    It is matched before docroot/CGI resolution and never appears in
    the access log.

    {2 Tracing}

    With [trace] on (the default), every request is traced through its
    lifecycle with {!Obs.Trace}: accept (or keep-alive reuse), header
    parse, pathname resolution and cache lookup, the disk work —
    attributed to the ["helper"] track under AMPED, to the main loop
    under SPED, to the worker's own track under MP/MT — response write,
    and close.  Completed traces land in a bounded ring served as
    Chrome trace-event JSON by [GET /server-trace] (Perfetto-loadable,
    one track per loop and for the helpers).  MP children's finished
    traces ride their reports whole, so the parent's ring — and its
    [/server-trace] — covers all children.  Every instance of a
    sharded server renders its trace views from every shard's ring.
    Requests slower than [slow_request_ms] are additionally appended to
    a slow-request log as a one-line span breakdown. *)

type mode =
  | Amped
      (** event loop + helper threads (Flash).  A cache miss goes to a
          helper unless a helper has already found the path to be a
          cacheable regular file and [mincore] says every page of it
          is in core, believed only for files the server's effective
          uid owns (or when it runs as root); then the loop fills it
          itself. *)
  | Sped  (** event loop only; cold files stall it *)
  | Mp of int  (** forked blocking workers *)
  | Mt of int  (** kernel threads sharing the cache behind a mutex *)
  | Sharded of int
      (** [n] OCaml domains, each a fully independent AMPED shard (own
          listener, evio backend, timer wheel, file cache, helper pool,
          metrics registry and flight recorder).  Each shard accepts on
          its own [SO_REUSEPORT] listener, all bound to one port, and
          the kernel spreads connections across them; there is no other
          accept path, so {!start} fails where the option is refused.
          Caches are domain-local unless
          [cache_budget_bytes] is set, which shares one {!Flash_cache.Budget.t}
          pool (and one cache lock) across every shard.  [/server-status]
          and [/metrics] expose both per-shard series (under a [shard]
          label) and the aggregate taken at snapshot: sums, except that
          uptime, SLO and guard state, stall threshold, max stall and
          a paused listener take the worst shard's, and histograms
          merge.  {!stats} and
          {!latency} read that aggregate. *)

type config = {
  docroot : string;
  port : int;  (** 0 picks an ephemeral port *)
  mode : mode;
  helpers : int;  (** helper threads (AMPED) *)
  file_cache_bytes : int;
  max_cached_file : int;
      (** larger files (and gzip variants) are served from a mapping
          made for the request and are never cached *)
  enable_cgi : bool;
  server_name : string;
  idle_timeout : float;  (** close keep-alive connections idle this long *)
  access_log : string option;  (** write a Common Log Format file here *)
  access_log_timing : bool;
      (** append each request's service time in microseconds (measured
          from its trace start) after the CLF fields *)
  status_path : string option;
      (** built-in status endpoint (default ["/server-status"]); [None]
          disables it *)
  stall_threshold : float;
      (** seconds; loop turns whose work takes longer than this are
          recorded as stalls (default 50 ms) *)
  slow_read : (string -> unit) option;
      (** fault injection: called with the path before every {e cold}
          file read — in AMPED helper context, inline in SPED/MP/MT —
          simulating slow media.  While it is set, AMPED's residency
          check answers "not resident", so every miss reaches a helper.
          Tests use it to prove where each architecture blocks. *)
  trace : bool;  (** record request-lifecycle traces (default on) *)
  trace_capacity : int;  (** completed-trace ring size (default 256) *)
  trace_path : string option;
      (** Chrome trace-event endpoint (default ["/server-trace"]);
          [None] disables it.  With [trace = false] the path is not
          special and resolves against the docroot. *)
  slow_request_ms : float option;
      (** log the span breakdown of requests slower than this *)
  slow_request_log : string option;
      (** slow-request log file; [None] writes to stderr *)
  cache_policy : Flash_cache.Policy.kind;
      (** file-cache replacement policy (default
          {!File_cache.default_policy}, GDSF) *)
  cache_admission : Flash_cache.Policy.admission;
      (** file-cache admission policy (default admit-always) *)
  cache_budget_bytes : int option;
      (** when set, the file cache also answers to a shared
          {!Flash_cache.Budget} of this many bytes *)
  event_backend : Evio.kind;
      (** readiness mechanism for every loop — main, MP parent, MP/MT
          workers (default {!Evio.default}, the best the system has;
          [Select] is the paper's baseline) *)
  gzip_precompressed : bool;
      (** serve a fresh [.gz] sibling (mtime at or after the origin's)
          to clients that negotiate gzip via Accept-Encoding (default
          on); when on, file responses carry [Vary: Accept-Encoding] *)
  accept_fault : (unit -> bool) option;
      (** test seam: consulted before each [accept]; returning [true]
          makes it behave as if it failed with EMFILE, exercising the
          shedding path without exhausting real descriptors *)
  metrics_path : string option;
      (** Prometheus text exposition endpoint (default ["/metrics"]);
          [None] disables it.  In MP mode a child serves its own view
          over HTTP; the parent's consolidated exposition is
          {!metrics_body}. *)
  latency_slo : (float * float) option;
      (** [(quantile, target_ms)]: evaluate a latency SLO over the
          flight recorder's windows — e.g. [(99., 50.)] means "p99 at
          or under 50 ms".  Burn rate and health state appear in
          [/server-status] and [/metrics] (default [None]) *)
  recorder_interval : float;
      (** flight-recorder window length, seconds (default 1.0); the
          ring keeps 120 windows *)
  guard : Flash_guard.Guard.config;
      (** admission control and load shedding (per-peer limits, slow
          client defenses, bounded queues, SLO-burn shedder).  The
          default, {!Flash_guard.Guard.default_config}, is fully inert.
          Sharded mode builds one guard per shard; MP children keep
          copy-on-write ledgers; MT workers share one locked guard. *)
  access_log_paths : bool;
      (** append the resolved filesystem path after the CLF
          status/bytes fields, making the access log machine-minable
          like the Apache [%>s %O %f] log pcache consumes (default
          [false]) *)
  warm : bool;
      (** predictive cache warming: mine observed demand each
          [warm_interval], pin the ranked hot set, prefetch ranked
          absentees through the helpers' low-priority lane.  Only
          instances with helper pools warm (AMPED; each shard in
          [Sharded]); default [false] skips all plumbing *)
  warm_interval : float;  (** seconds between mining cycles (default 5) *)
  warm_budget : float;
      (** pinned hot tier bounded to this fraction of the file cache's
          capacity (default 0.25) *)
  warm_top_k : int;
      (** candidates considered per mining cycle (default 64) *)
  warm_log : string option;
      (** access log mined once at startup, so a restarted server warms
          from the previous run's traffic before its first request *)
}

val default_config : docroot:string -> config

type stats = {
  requests : int;
  connections : int;
  errors : int;
  cache_hits : int;
  cache_misses : int;
  helper_jobs : int;
  cache_evictions : int;
  helper_queue_depth : int;  (** queued + in-flight helper jobs now *)
  active_connections : int;  (** connections currently open *)
  loop_stalls : int;  (** loop turns over the threshold, every loop's *)
  loop_max_stall : float;  (** longest turn of any loop, seconds *)
  writev_calls : int;  (** gather writes issued *)
  bytes_copied : int;  (** response bytes copied in userspace *)
  mapped_bytes : int;  (** file bytes currently mmap'd by the cache *)
  event_backend : string;  (** readiness backend name in use *)
  loop_wakeups : int;  (** times the readiness wait returned *)
  timer_fires : int;  (** timer-wheel expirations handled *)
  accept_emfile : int;  (** accepts shed on EMFILE/ENFILE *)
}

type t

(** Bind the listen socket and (AMPED) start the helper pool.  The event
    loop does not run until {!run} or {!start_background}.  [Sharded n]
    builds the whole shard set here, one [SO_REUSEPORT] listener per
    shard; the shard domains themselves are spawned by {!run}.
    @raise Failure naming [SO_REUSEPORT] for [Sharded n] where the
    build or the kernel refuses the option, after closing every
    listener it bound: sharded mode has no other way to accept. *)
val start : config -> t

(** The bound port (useful with [port = 0]). *)
val port : t -> int

(** Run the event loop in the calling thread until {!stop}. *)
val run : t -> unit

(** Run the event loop in a background thread (for tests/examples). *)
val start_background : config -> t

(** Stop the loop, close the listener, shut helpers down.  Idempotent. *)
val stop : t -> unit

val stats : t -> stats
(** Values read from the walk [/metrics] renders: an MP parent's
    consolidated view (its report pipes drained first), a sharded
    server's aggregate. *)

val mode : t -> mode

(** Snapshot of the per-request latency histogram (seconds), from the
    same walk as {!stats}: the MP parent's consolidated view, the
    shards' merge when sharded. *)
val latency : t -> Obs.Histogram.t

(** Snapshot of the helper job-latency histogram, from the same walk as
    {!stats}: [Some] where there are helpers (AMPED, and a sharded
    server's merge over its shards). *)
val helper_job_latency : t -> Obs.Histogram.t option

val tracing_enabled : t -> bool

(** Completed traces, oldest first: the ring, which in MP mode is the
    parent's consolidated view (the report pipes are drained first).
    A sharded server merges every shard's ring in completion order,
    with trace ids made distinct across shards. *)
val trace_snapshot : t -> Obs.Trace.trace_data list

(** One walk over the unified metrics registry, rendered as Prometheus
    text exposition — what [GET /metrics] serves.  In MP mode, calling
    this on the parent drains the report pipes first and renders the
    consolidated view (a child serving the endpoint over HTTP renders
    its own). *)
val metrics_body : t -> string

(** Flight-recorder dump: flush the partial window, render the whole
    ring as [{"capacity":…, "interval":…, "rollups":[…]}], each rollup
    keyed as the status listing.  The sharded coordinator's windows
    diff the shards' aggregate.  Wired to SIGUSR1 by [flash_serve]. *)
val recorder_dump : t -> string
