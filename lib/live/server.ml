module Guard = Flash_guard.Guard

type mode = Amped | Sped | Mp of int | Mt of int | Sharded of int

type config = {
  docroot : string;
  port : int;
  mode : mode;
  helpers : int;
  file_cache_bytes : int;
  max_cached_file : int;
  enable_cgi : bool;
  server_name : string;
  idle_timeout : float;
  access_log : string option;  (* Common Log Format file *)
  access_log_timing : bool;  (* append service time (µs) after CLF fields *)
  status_path : string option;  (* built-in status endpoint; None disables *)
  stall_threshold : float;  (* a loop turn working longer is a stall *)
  slow_read : (string -> unit) option;  (* cold-media fault injection *)
  trace : bool;  (* record request-lifecycle spans *)
  trace_capacity : int;  (* completed-trace ring size *)
  trace_path : string option;  (* Chrome trace-event endpoint; None disables *)
  slow_request_ms : float option;  (* log traces slower than this *)
  slow_request_log : string option;  (* slow-request log file; None = stderr *)
  cache_policy : Flash_cache.Policy.kind;  (* file-cache replacement *)
  cache_admission : Flash_cache.Policy.admission;  (* file-cache admission *)
  cache_budget_bytes : int option;
      (* shared byte budget overlaying the file cache's own capacity *)
  event_backend : Evio.kind;  (* readiness mechanism for every loop *)
  gzip_precompressed : bool;  (* serve fresh [.gz] siblings to gzip clients *)
  accept_fault : (unit -> bool) option;
      (* test seam: returning true makes the next accept behave as if
         it failed with EMFILE *)
  metrics_path : string option;  (* Prometheus exposition endpoint *)
  latency_slo : (float * float) option;
      (* (quantile, target ms): evaluate an error-budget burn over the
         flight recorder's windows *)
  recorder_interval : float;  (* rollup window length, seconds *)
  guard : Guard.config;
      (* admission control and load shedding; Guard.default_config is
         fully inert and skips all guard plumbing *)
  access_log_paths : bool;
      (* append the resolved filesystem path after the CLF status/bytes
         fields, making the log machine-minable (pcache's %>s %O %f) *)
  warm : bool;  (* predictive cache warming; false skips all plumbing *)
  warm_interval : float;  (* seconds between mining cycles *)
  warm_budget : float;  (* pinned hot tier <= this fraction of the cache *)
  warm_top_k : int;  (* candidates considered per cycle *)
  warm_log : string option;
      (* access log mined once at startup, so a restarted server warms
         from the previous run's traffic before the first request *)
}

let default_config ~docroot =
  {
    docroot;
    port = 0;
    mode = Amped;
    helpers = 4;
    file_cache_bytes = 32 * 1024 * 1024;
    max_cached_file = 4 * 1024 * 1024;
    enable_cgi = true;
    server_name = Http.Response.default_server;
    idle_timeout = 30.;
    access_log = None;
    access_log_timing = false;
    status_path = Some "/server-status";
    stall_threshold = 0.05;
    slow_read = None;
    trace = true;
    trace_capacity = 256;
    trace_path = Some "/server-trace";
    slow_request_ms = None;
    slow_request_log = None;
    cache_policy = File_cache.default_policy;
    cache_admission = Flash_cache.Policy.Admit_always;
    cache_budget_bytes = None;
    event_backend = Evio.default;
    gzip_precompressed = true;
    accept_fault = None;
    metrics_path = Some "/metrics";
    latency_slo = None;
    recorder_interval = 1.0;
    guard = Guard.default_config;
    access_log_paths = false;
    warm = false;
    warm_interval = 5.;
    warm_budget = 0.25;
    warm_top_k = 64;
    warm_log = None;
  }

type stats = {
  requests : int;
  connections : int;
  errors : int;
  cache_hits : int;
  cache_misses : int;
  helper_jobs : int;
  cache_evictions : int;
  helper_queue_depth : int;
  active_connections : int;
  loop_stalls : int;
  loop_max_stall : float;
  writev_calls : int;
  bytes_copied : int;
  mapped_bytes : int;
  event_backend : string;
  loop_wakeups : int;
  timer_fires : int;
  accept_emfile : int;
}

(* MP parent: one child's report pipe and the walk it last reported.
   The read end is closed only at teardown, so a snapshot caller's
   drain never reads a recycled descriptor. *)
type member = {
  input : Unix.file_descr;  (* read end, nonblocking *)
  decoder : Stats_frame.decoder;
  mutable walk : Obs.Registry.sample list;  (* kept after the child exits *)
  mutable eof : bool;
}

type conn_state =
  | Reading
  | Waiting_helper of Http.Request.t * string  (* request, full path *)
  | Streaming_cgi of Unix.file_descr * int  (* pipe fd, child pid *)

type conn = {
  fd : Unix.file_descr;
  key : int;
  peer : string;  (* peer address (no port): the guard's ledger key *)
  loop : loop;  (* the event loop that owns this connection *)
  (* Request bytes read but not yet parsed: a head split across reads,
     or pipelined requests behind the one in flight.  Empty in the
     common case, where a read is parsed where it landed.  The first
     [scanned] bytes are known to start no head end. *)
  mutable inbuf : string;
  mutable scanned : int;
  outq : Sendq.t;
  mutable state : conn_state;
  mutable close_after_flush : bool;
  mutable last_active : float;
  (* The request in flight, stamped as it goes ({!Obs.Trace.stamps}):
     [stamps.head], its first byte, is nan between requests.  It opens
     when [try_parse] first sees its bytes, and closes when its response
     is out or the connection ends ([finish_request]), which writes its
     trace from these stamps.  [stamps.accepted] holds the accept until
     the first request closes.  [work] names the loop's own work for the
     request ("" for none), and its trace label is [label_meth]
     [label_target]. *)
  stamps : Obs.Trace.stamps;
  mutable work : string;
  mutable label_meth : string;
  mutable label_target : string;
  mutable alive : bool;
  mutable reqs_served : int;  (* requests finished on this connection *)
  (* Readiness interest last pushed to the evio backend; [sync_conn]
     diffs against these so unchanged fds cost nothing.  [want_write]
     is set only while a write would block. *)
  mutable want_read : bool;
  mutable want_write : bool;
  mutable registered : bool;
  mutable flushed_turn : int;  (* loop turn of the last immediate flush *)
  mutable cgi_fd_registered : Unix.file_descr option;
  (* Timer-wheel entries owned by this connection. *)
  mutable idle_timer : timer_ev Evio.Timer_wheel.timer option;
  mutable cgi_timer : timer_ev Evio.Timer_wheel.timer option;
  (* Guard state: the header deadline runs from the first byte of a
     request head to parse completion (the idle timer resets on every
     byte, which is exactly what a slowloris exploits; this one does
     not).  The transfer check compares [sent_bytes] against the mark
     it left last time it fired. *)
  mutable hdr_timer : timer_ev Evio.Timer_wheel.timer option;
  mutable xfer_timer : timer_ev Evio.Timer_wheel.timer option;
  mutable sent_bytes : int;  (* response bytes the kernel accepted *)
  mutable recv_bytes : int;  (* request bytes read off the socket *)
  mutable xfer_mark : int;  (* sent+recv at the last transfer check *)
}

(* What the loop's timer wheel fires. *)
and timer_ev =
  | T_idle of conn  (* keep-alive idle-timeout check *)
  | T_cgi of conn  (* CGI wall-clock deadline *)
  | T_resume_accept  (* re-arm the listen fd after EMFILE backoff *)
  | T_rollup  (* close the flight recorder's current window *)
  | T_hdr of conn  (* guard: per-request header deadline *)
  | T_xfer of conn  (* guard: minimum-transfer-rate check *)
  | T_guard_tick  (* guard: SLO shedder + peer-ledger sweep *)
  | T_warm  (* warming: mine, re-pin the hot tier, issue prefetches *)
  | T_report  (* MP child: the report a recent one deferred *)

(* Who a ready file descriptor belongs to. *)
and fd_owner =
  | O_listen
  | O_wake
  | O_helper
  | O_report of member  (* MP parent: one child's report pipe *)
  | O_client of conn
  | O_cgi of conn

(* One event loop's own state.  Every mode runs the same [run_loop] over
   one of these: the AMPED/SPED/shard loop serves many connections; each
   MP child and MT worker owns a loop that takes one connection at a
   time and has no helpers, so its disk reads block only that worker;
   the MP parent and the MT main thread run one without the listener.
   An epoll interest set must not be shared across forks or mutated by
   several threads, so every loop has its own backend.  A loop's turn
   record and read scratch are its own too: only its thread touches
   them, so a worker's stall is counted against that worker. *)
and loop = {
  evio : Evio.Backend.t;
  wheel : timer_ev Evio.Timer_wheel.t;
  fd_owners : (Unix.file_descr, fd_owner) Hashtbl.t;
  conns : (int, conn) Hashtbl.t;
  by_helper_key : (int, conn) Hashtbl.t;
  stat : Obs.Loopstat.t;  (* its turns: wakeups, wait/work, stalls *)
  scratch : Bytes.t;  (* where its socket and CGI pipe reads land *)
  mutable next_key : int;
  mutable now : float;  (* the clock when this turn's wait returned *)
  mutable accept_paused : bool;  (* listen interest parked by backoff *)
  mutable accept_backoff : float;  (* current backoff delay, seconds *)
  accepts : bool;  (* watches the listen fd *)
  single : bool;  (* MP/MT worker: one connection at a time *)
  track : string;  (* the trace track its request work lands on *)
}

(* Sharded mode: who this instance is within the shard set.  A shard
   (its id) is a full AMPED server (own listener, evio backend, timer
   wheel, cache, helper pool, registry) running its loop on its own
   domain; the coordinator serves nothing and owns the lifecycle. *)
type role = Standalone | Shard_member of int | Shard_coordinator

(* Predictive-warming state.  [None] unless [config.warm] and the
   instance has a helper pool (AMPED, or a shard member) — the prefetch
   side rides the helpers' low-priority lane, so modes without helpers
   have nothing to warm with.  Touched only from the owning event loop
   (the T_warm handler and completion drain), except the counters,
   which the registry reads. *)
type warm_state = {
  w_miner : Flash_warm.Miner.t;
  w_absorber : Flash_warm.Warm.absorber;
  w_conf : Flash_warm.Warm.config;
  w_pin_budget : int;  (* pinned-tier byte bound (warm_budget * capacity) *)
  mutable w_next_key : int;  (* prefetch job keys: negative, decrementing *)
  w_prefetching : (int, string) Hashtbl.t;  (* in-flight key -> path *)
  (* Paths a prefetch inserted, so later demand hits can be attributed
     to warming.  Bounded: forgetting only loses attribution. *)
  w_warmed : (string, unit) Hashtbl.t;
  w_cycles : Obs.Counter.t;
  w_ranked : Obs.Counter.t;
  w_issued : Obs.Counter.t;
  w_completed : Obs.Counter.t;
  w_failed : Obs.Counter.t;
  w_hits_after : Obs.Counter.t;
}

let warmed_limit = 4096

(* Bound on the known-path set ([t.known]); past it the set restarts,
   as [w_warmed] does.  Forgetting a path costs one helper round trip. *)
let known_paths_limit = 65_536

(* Seconds a CGI child may stream before it is killed. *)
let cgi_timeout = 300.

(* Flight-recorder windows kept: two minutes at the default interval. *)
let recorder_capacity = 120

(* Whose [mincore] answers the loop believes: see
   [File_cache.trusts_mincore]. *)
let euid = Unix.geteuid ()

(* MP consolidation: each child reports its walk over a pipe of its
   own (see {!Stats_frame}).  The parent sets [Mp_parent] once its
   children are forked; each child sets [Mp_child] right after its
   fork. *)
type mp_link =
  | Mp_none
  | Mp_parent of {
      members : member list;
      buf : Bytes.t;  (* read scratch, used under [stats_mutex] *)
    }
  | Mp_child of {
      out : Unix.file_descr;  (* write end, blocking *)
      mutable reported_at : float;  (* clock at the last busy-turn report *)
      mutable deferred : timer_ev Evio.Timer_wheel.timer option;
      mutable reported : int;  (* [Obs.Trace.completed] at the last report *)
    }

type t = {
  config : config;
  listen_fd : Unix.file_descr;
  bound_port : int;
  cache : File_cache.t;
  helper : Helper.t option;
  wake_read : Unix.file_descr;
  wake_write : Unix.file_descr;
  main : loop;  (* the loop [run] drives *)
  (* Every loop this instance runs: [main], then each MP/MT worker's,
     added by [run_worker] under [obs_mutex].  The loop series fold
     them all. *)
  mutable loops : loop list;
  accept_emfile : Obs.Counter.t;  (* accepts shed on EMFILE/ENFILE *)
  mutable stopped : bool;
  mutable loop_thread : Thread.t option;
  mutable children : int list;  (* MP child pids *)
  mutable n_requests : int;
  mutable n_connections : int;
  mutable n_errors : int;
  log_channel : out_channel option;
  mutable mp : mp_link;
  (* Serialises report-pipe reads and the members' walks: the parent
     loop and snapshot callers both drain. *)
  stats_mutex : Mutex.t;
  (* MT mode: threads share the cache; systhreads interleave at
     allocation points, so cache access is serialized. *)
  cache_mutex : Mutex.t;
  (* Guards the observability state (latency histogram, gauges) where
     several threads record: MT workers, helper completions vs stats
     readers. *)
  obs_mutex : Mutex.t;
  latency : Obs.Histogram.t;  (* per-request latency, seconds *)
  active : Obs.Gauge.t;  (* currently open connections *)
  (* Request-lifecycle tracing (None with --no-trace).  Its ring is
     guarded by [obs_mutex] (MT workers finish into one ring, an MP
     parent ingests while a view renders). *)
  tracer : Obs.Trace.t option;
  slow_channel : out_channel option;  (* slow-request log sink *)
  started_at : float;
  mutable worker_threads : Thread.t list;
  (* Send-path accounting (guarded by [obs_mutex] where several threads
     record): gather writes issued, and bytes that crossed userspace on
     their way out. *)
  writev_calls : Obs.Counter.t;
  bytes_copied : Obs.Counter.t;
  bytes_sent : Obs.Counter.t;  (* response bytes the kernel accepted *)
  (* Responses by status class: slots for 2xx/3xx/4xx/5xx, guarded by
     [obs_mutex]. *)
  status_classes : int array;
  (* The unified metrics registry: every surface (/server-status text
     and JSON, /metrics exposition, programmatic stats) renders from
     one [Registry.collect] walk over these closures. *)
  registry : Obs.Registry.t;
  (* Flight recorder + SLO evaluator.  The recorder's read closure
     captures [t], so it is attached right after construction (before
     MP forks / MT threads, which inherit it).  All recorder access
     goes through [recorder_mutex]: ticks race between workers, status
     reads and dumps. *)
  mutable recorder : Obs.Recorder.t option;
  recorder_mutex : Mutex.t;
  slo : Obs.Slo.t option;
  (* Sharded mode wiring (Standalone otherwise).  [shards] is the full
     shard set, index = shard id, shared by the coordinator and every
     shard so any instance can render the cross-shard views; [coord]
     points every shard back at the coordinator, whose registry joins
     their aggregate.  Both are fixed right after construction, before
     any domain is spawned. *)
  (* Admission control and shedding.  One instance per server instance
     — per shard in sharded mode, shared by MT workers (it locks
     internally), copy-on-write per MP child.  [None] when the config
     enables nothing, so the unguarded hot path pays no checks. *)
  guard : Guard.t option;
  (* Predictive warming (None when disabled or helperless): miner,
     prefetch bookkeeping and counters — see [warm_state]. *)
  warm : warm_state option;
  (* The pathname cache of §4.2: paths a helper found to be cacheable
     regular files, whose later misses the loop may fill itself when
     every page is in core.  Touched only by the loop that owns the
     helpers. *)
  known : (string, unit) Hashtbl.t;
  mutable cgi_inflight : int;  (* live CGI children (event-loop modes) *)
  role : role;
  mutable shards : t array;
  mutable coord : t option;
  mutable domains : unit Domain.t list;
  (* Which lock guards this instance's cache (None = unshared, no lock
     needed): the instance's own [cache_mutex] in MT mode, one mutex
     shared by every shard when a budget spans domains — a foreign
     shard's rebalance may then shed into this cache. *)
  cache_lock : Mutex.t option;
}

let log = Logs.Src.create "flash.live" ~doc:"Flash live server"

module Log = (val Logs.src_log log : Logs.LOG)

(* The lock helpers.  A critical section on a request's path (a
   counter bump, a histogram record) takes the mutex inline instead:
   its body cannot raise, and a closure per call is allocation the hit
   path need not pay. *)
let with_cache_lock t f =
  match t.cache_lock with Some m -> Mutex.protect m f | None -> f ()

let with_obs_lock t f = Mutex.protect t.obs_mutex f

let status_class_names = [| "2xx"; "3xx"; "4xx"; "5xx" |]

(* Count a response by status class (2xx/3xx/4xx/5xx). *)
let count_status t code =
  let cls = Stdlib.min 3 (Stdlib.max 0 ((code / 100) - 2)) in
  Mutex.lock t.obs_mutex;
  t.status_classes.(cls) <- t.status_classes.(cls) + 1;
  Mutex.unlock t.obs_mutex

(* ------------------------------------------------------------------ *)
(* Flight recorder plumbing                                            *)
(* ------------------------------------------------------------------ *)

(* All recorder access is serialised: ticks race between request paths,
   loop timers, status reads and dump requests (MT workers share one
   recorder).  Its read is a registry walk, whose closures take
   [stats_mutex]/[obs_mutex] inside; nothing takes [recorder_mutex]
   while holding those. *)
let with_recorder t f =
  match t.recorder with
  | None -> None
  | Some r -> Mutex.protect t.recorder_mutex (fun () -> Some (f r))

(* A tick that closes a window runs the registry walk, which may raise;
   the mutex is released either way. *)
let tick_recorder t ~now =
  match t.recorder with
  | None -> ()
  | Some r -> (
      Mutex.lock t.recorder_mutex;
      match Obs.Recorder.tick ~now r with
      | () -> Mutex.unlock t.recorder_mutex
      | exception e ->
          Mutex.unlock t.recorder_mutex;
          raise e)

(* ------------------------------------------------------------------ *)
(* Request-lifecycle tracing                                           *)
(* ------------------------------------------------------------------ *)

(* A request in flight is its connection's stamps, work phase and label
   parts: the request path only sets them, taking no lock and
   allocating nothing, and [finish_request] writes the whole trace into
   the ring in one call.  The clock reads that serve only the trace
   (the lookup's end, the work phase's bounds) are taken only with
   tracing on. *)

(* A request opens at the first byte of its head, one clock read. *)
let open_request conn =
  let st = conn.stamps in
  Obs.Trace.clear st;
  st.head <- Unix.gettimeofday ();
  conn.work <- "";
  conn.label_meth <- "";
  conn.label_target <- "request"

(* The head parsed (or refused, labelled "bad-request" with no
   method). *)
let head_parsed conn ~meth ~target =
  conn.stamps.parsed <- Unix.gettimeofday ();
  conn.label_meth <- meth;
  conn.label_target <- target

(* Pathname translation and cache lookup done. *)
let looked_up t conn =
  if Option.is_some t.tracer then conn.stamps.looked_up <- Unix.gettimeofday ()

(* The loop's own work for the request: an inline fill, a disk read or
   a CGI child.  It ends at the response's stamp ([record_latency]), or
   at [end_work] when it yields no response. *)
let begin_work t conn name =
  if Option.is_some t.tracer && String.length conn.work = 0 then begin
    conn.work <- name;
    conn.stamps.work_start <- Unix.gettimeofday ()
  end

let working conn =
  String.length conn.work > 0 && Float.is_nan conn.stamps.work_stop

let end_work conn =
  if working conn then conn.stamps.work_stop <- Unix.gettimeofday ()

let log_slow t ~since data =
  let line = Obs.Trace.summary ~since data in
  match t.slow_channel with
  | Some oc ->
      output_string oc (line ^ "\n");
      flush oc
  | None -> prerr_endline line

(* Close the request in flight: its response bytes are out, or the
   connection died.  Its trace, stamped once here, is written into the
   ring and, past the slow threshold counted from the request's first
   byte, its breakdown goes to the slow-request log. *)
let finish_request ?(closing = false) t conn =
  let st = conn.stamps in
  if not (Float.is_nan st.head) then begin
    conn.reqs_served <- conn.reqs_served + 1;
    (match t.tracer with
    | None -> ()
    | Some tracer ->
        st.ended <- Unix.gettimeofday ();
        Mutex.lock t.obs_mutex;
        Obs.Trace.record tracer st ~track:conn.loop.track ~work:conn.work
          ~meth:conn.label_meth ~target:conn.label_target
          ~closing:(closing || conn.close_after_flush);
        let slow =
          match t.config.slow_request_ms with
          | Some ms when (st.ended -. st.head) *. 1000. >= ms ->
              Obs.Trace.since tracer (Obs.Trace.completed tracer - 1)
          | _ -> []
        in
        Mutex.unlock t.obs_mutex;
        match slow with
        | [ data ] -> log_slow t ~since:st.head data
        | _ -> ());
    st.head <- Float.nan;
    (* The first request's trace reached back to the accept; later
       ones mark the keep-alive reuse. *)
    st.accepted <- Float.nan
  end

let log_access ?conn ?path t ~meth ~target ~status ~bytes =
  match t.log_channel with
  | None -> ()
  | Some oc ->
      (* Common Log Format; host is always loopback here.  With
         [access_log_paths], the resolved filesystem path follows the
         status/bytes pair — stable machine-minable fields, like the
         Apache %>s %O %f log pcache mines.  With [access_log_timing],
         the request's service time so far (microseconds, measured from
         its first byte) is appended last. *)
      let base =
        Printf.sprintf "127.0.0.1 - - [%s] \"%s %s HTTP/1.1\" %d %d"
          (Http.Http_date.format (Unix.gettimeofday ()))
          meth target status bytes
      in
      let base =
        match path with
        | Some p when t.config.access_log_paths -> base ^ " " ^ p
        | _ -> base
      in
      let line =
        if not t.config.access_log_timing then base
        else
          let now = Unix.gettimeofday () in
          let started =
            match conn with
            | Some c when not (Float.is_nan c.stamps.head) -> c.stamps.head
            | _ -> now
          in
          let us = (now -. started) *. 1e6 in
          Printf.sprintf "%s %d" base (int_of_float (Float.max 0. us))
      in
      output_string oc (line ^ "\n");
      flush oc

(* Latency is measured from parse completion (a head that never parsed,
   answered 408, from its first byte) to response generation — for
   AMPED that spans the helper round-trip, for SPED the inline disk
   work, so the architectural difference is visible in the numbers.
   This is also the "response generated" stamp: the work phase (inline
   disk read, CGI) ends there, the write begins, and the flight
   recorder checks its window. *)
let record_latency t conn =
  let st = conn.stamps in
  let now = Unix.gettimeofday () in
  Mutex.lock t.obs_mutex;
  Obs.Histogram.record t.latency
    (now -. if Float.is_nan st.parsed then st.head else st.parsed);
  Mutex.unlock t.obs_mutex;
  if working conn then st.work_stop <- now;
  if Float.is_nan st.ready then st.ready <- now;
  tick_recorder t ~now

let slow_read_hook t path =
  match t.config.slow_read with Some f -> f path | None -> ()

(* ------------------------------------------------------------------ *)
(* Request resolution                                                  *)
(* ------------------------------------------------------------------ *)

(* Every header is padded to a 32-byte boundary (§5.5). *)
let align = Some 32

(* Map a request target to a path under the docroot; [Error] carries the
   response status.  A NUL (decoded from [%00]) names no file, and the
   file cache keys a path's variants with one, so it is refused here,
   where every mode passes. *)
let resolve _t (req : Http.Request.t) =
  let raw = req.Http.Request.path in
  if String.contains raw '\x00' then Error Http.Status.Bad_request
  else
    match Http.Request.normalize_path raw with
    | None -> Error Http.Status.Forbidden
    | Some path ->
        let wants_index =
          path = "/"
          || (String.length raw > 0 && raw.[String.length raw - 1] = '/')
        in
        let path =
          if wants_index then
            (if path = "/" then "" else path) ^ "/index.html"
          else path
        in
        Ok path

let is_cgi path =
  String.length path >= 9 && String.sub path 0 9 = "/cgi-bin/"

(* The status endpoint is matched on the raw request path, before any
   docroot or CGI resolution, so it can never 403, escape, or collide
   with a docroot file of the same name. *)
let is_status_request t (req : Http.Request.t) =
  match t.config.status_path with
  | None -> false
  | Some sp -> String.equal req.Http.Request.path sp

(* Same raw-path matching as the status endpoint.  With tracing off the
   path is not special: it falls through to docroot resolution (and a
   404 on a standard docroot). *)
let is_trace_request t (req : Http.Request.t) =
  match (t.config.trace_path, t.tracer) with
  | Some tp, Some _ -> String.equal req.Http.Request.path tp
  | _ -> false

(* Same raw-path matching as the status endpoint.  In MP children this
   serves the child-local view (the consolidated one lives in the
   parent, which reads the report pipes). *)
let is_metrics_request t (req : Http.Request.t) =
  match t.config.metrics_path with
  | None -> false
  | Some mp -> String.equal req.Http.Request.path mp

(* ------------------------------------------------------------------ *)
(* MP consolidation over the report pipes                              *)
(* ------------------------------------------------------------------ *)

(* One read of a child's pipe: each report it completes replaces the
   child's walk, and its traces join the parent's ring.  False when the
   pipe has nothing more (at EOF, which marks the member, too).  Call
   under [stats_mutex]. *)
let read_member t buf m =
  match Unix.read m.input buf 0 (Bytes.length buf) with
  | 0 ->
      m.eof <- true;
      false
  | n ->
      List.iter
        (fun (r : Stats_frame.t) ->
          m.walk <- r.Stats_frame.walk;
          match t.tracer with
          | Some tracer ->
              with_obs_lock t (fun () ->
                  List.iter (Obs.Trace.ingest tracer) r.Stats_frame.traces)
          | None -> ())
        (Stats_frame.feed m.decoder buf n);
      true
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      false
  | exception Unix.Unix_error _ ->
      m.eof <- true;
      false

let drain_member t buf m =
  if not m.eof then while read_member t buf m do () done

(* The MP parent's one reader, run by its loop when a pipe is readable
   and on demand before every snapshot, so views are current between
   loop wakeups.  Returns each child's latest walk; [] outside the MP
   parent. *)
let drain_reports t =
  match t.mp with
  | Mp_parent { members; buf } ->
      Mutex.lock t.stats_mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.stats_mutex)
        (fun () ->
          List.map
            (fun m ->
              drain_member t buf m;
              m.walk)
            members)
  | Mp_none | Mp_child _ -> []

(* ------------------------------------------------------------------ *)
(* Status rendering                                                    *)
(* ------------------------------------------------------------------ *)

let mode_string = function
  | Amped -> "amped"
  | Sped -> "sped"
  | Mp n -> Printf.sprintf "mp:%d" n
  | Mt n -> Printf.sprintf "mt:%d" n
  | Sharded n -> Printf.sprintf "sharded:%d" n

let shard_peers t =
  match t.role with
  | Standalone -> None
  | Shard_member _ | Shard_coordinator ->
      if Array.length t.shards = 0 then None else Some t.shards

(* Gauges that are not additive across members (shards, MP children):
   fold with max. *)
let gauge_max_name name =
  name = "flash_uptime_seconds" || name = "flash_slo_state"
  || name = "flash_guard_state" || name = "flash_loop_max_stall_seconds"
  || name = "flash_loop_stall_threshold_seconds"
  || name = "flash_accept_paused"
  || name = "flash_slo_burn_ratio" || name = "flash_slo_windows"

(* Fold member walks into one view, summed at snapshot: the shard label
   stripped, counters and gauges summed (max for [gauge_max_name]),
   histograms merged. *)
let fold_walks walks =
  Obs.Registry.aggregate ~gauge_max:gauge_max_name ~drop:"shard"
    (List.concat walks)

let shard_walks shards =
  List.map (fun sh -> Obs.Registry.collect sh.registry) (Array.to_list shards)

(* What this instance reports: its own walk, or, for an instance that
   serves nothing, the fold of its members' walks: every shard's for
   the sharded coordinator ([per_shard] when the caller holds them),
   each child's latest report for the MP parent.  The recorder reads
   this, and [collect_for] builds every other view on it. *)
let report ?per_shard t =
  match (t.role, t.mp) with
  | Shard_coordinator, _ ->
      fold_walks
        (match per_shard with Some w -> w | None -> shard_walks t.shards)
  | _, Mp_parent _ -> fold_walks (drain_reports t)
  | _, (Mp_none | Mp_child _) -> Obs.Registry.collect t.registry

(* The one walk behind every view of the counters: /metrics, both
   status pages, [stats] and [latency].  Unsharded it is what this
   instance reports (an MP child's is its own view).  Sharded it is
   the coordinator's report, the shards' aggregate, followed by every
   shard's walk. *)
let collect_for t =
  match shard_peers t with
  | None -> report t
  | Some shards ->
      let per_shard = shard_walks shards in
      Obs.Registry.sort_samples
        (report ~per_shard (Option.value t.coord ~default:t)
        @ List.concat per_shard)

(* One instance's trace ring, oldest first. *)
let ring t =
  match t.tracer with
  | None -> []
  | Some tracer -> with_obs_lock t (fun () -> Obs.Trace.snapshot tracer)

(* The traces every trace view renders: this instance's ring (an MP
   parent's with the pipes drained first), or, sharded, every shard's
   ring, each read under its own shard's lock, merged in completion
   order, oldest first, with the ids made distinct across shards. *)
let traces t =
  match shard_peers t with
  | None ->
      ignore (drain_reports t);
      ring t
  | Some shards ->
      let n = Array.length shards in
      List.concat
        (List.mapi
           (fun i sh ->
             List.map
               (fun (d : Obs.Trace.trace_data) ->
                 { d with Obs.Trace.id = (d.Obs.Trace.id * n) + i })
               (ring sh))
           (Array.to_list shards))
      |> List.stable_sort (fun (a : Obs.Trace.trace_data) b ->
             Float.compare a.Obs.Trace.t_end b.Obs.Trace.t_end)

let trace_body t = Obs.Trace.to_chrome_json (traces t)

(* /metrics: the same walk, rendered as Prometheus text exposition. *)
let metrics_body t = Obs.Exposition.render (collect_for t)

(* ?window=N: the newest N flight-recorder rollups as JSON. *)
let window_body t n =
  let rollups =
    match with_recorder t (fun r -> Obs.Recorder.window r n) with
    | Some rs -> rs
    | None -> []
  in
  Printf.sprintf {|{"window":%d,"rollups":%s}|} n
    (Obs.Recorder.rollups_json rollups)
  ^ "\n"

let wants_json (req : Http.Request.t) =
  match req.Http.Request.query with
  | Some "json" | Some "format=json" -> true
  | Some _ | None -> false

(* ?window=N on the status path selects the flight-recorder view. *)
let status_window (req : Http.Request.t) =
  match req.Http.Request.query with
  | Some q when String.length q > 7 && String.sub q 0 7 = "window=" -> (
      match int_of_string_opt (String.sub q 7 (String.length q - 7)) with
      | Some n when n > 0 -> Some n
      | _ -> None)
  | Some _ | None -> None

(* ------------------------------------------------------------------ *)
(* Registry wiring                                                     *)
(* ------------------------------------------------------------------ *)

(* Sharded: every series of a shard carries its shard id, so per-shard
   and stripped-label aggregate rows coexist as unique (name, labels)
   pairs in the combined exposition. *)
let own_labels t =
  match t.role with
  | Shard_member id -> [ ("shard", string_of_int id) ]
  | Standalone | Shard_coordinator -> []

(* Every metric is a closure reading live server state; nothing below
   may be called while holding [obs_mutex] ([collect] runs the closures,
   and the lock is not reentrant). *)
let register_metrics t =
  let r = t.registry in
  let sl = own_labels t in
  let c ~name ~help ?(labels = []) read =
    Obs.Registry.counter r ~name ~help ~labels:(labels @ sl) read
  in
  let g ~name ~help ?(labels = []) read =
    Obs.Registry.gauge r ~name ~help ~labels:(labels @ sl) read
  in
  let hist ~name ~help ?(labels = []) read =
    Obs.Registry.histogram r ~name ~help ~labels:(labels @ sl) read
  in
  let inf ~name ~help ~labels =
    Obs.Registry.info r ~name ~help ~labels:(labels @ sl)
  in
  let locked f () = with_obs_lock t f in
  let cstat () = File_cache.stats t.cache in
  inf ~name:"flash_build_info"
    ~help:"Build information (constant 1)."
    ~labels:[ ("ocaml", Sys.ocaml_version); ("server", t.config.server_name) ];
  inf ~name:"flash_config_info"
    ~help:"Effective server configuration (constant 1)."
    ~labels:
      [
        ("backend", Evio.name t.config.event_backend);
        ("cache_admission", (cstat ()).Flash_cache.Store.admission);
        ("cache_policy", (cstat ()).Flash_cache.Store.policy);
        ("mode", mode_string t.config.mode);
      ];
  g ~name:"flash_uptime_seconds" ~help:"Seconds since server start."
    (fun () -> Unix.gettimeofday () -. t.started_at);
  c ~name:"flash_http_requests_total" ~help:"Requests parsed and answered."
    (fun () -> t.n_requests);
  c ~name:"flash_http_errors_total"
    ~help:"Requests answered with an error status." (fun () -> t.n_errors);
  Array.iteri
    (fun i cls ->
      c ~name:"flash_http_responses_total" ~help:"Responses by status class."
        ~labels:[ ("class", cls) ]
        (locked (fun () -> t.status_classes.(i))))
    status_class_names;
  c ~name:"flash_connections_total" ~help:"Connections accepted."
    (fun () -> t.n_connections);
  g ~name:"flash_active_connections"
    ~help:
      "Connections currently open (MP: summed over children at snapshot)."
    (locked (fun () -> float_of_int (Obs.Gauge.value t.active)));
  c ~name:"flash_writev_calls_total" ~help:"Gather writes issued."
    (locked (fun () -> Obs.Counter.value t.writev_calls));
  c ~name:"flash_bytes_copied_total"
    ~help:"Response bytes copied through userspace."
    (locked (fun () -> Obs.Counter.value t.bytes_copied));
  c ~name:"flash_bytes_sent_total"
    ~help:"Response bytes accepted by the kernel."
    (locked (fun () -> Obs.Counter.value t.bytes_sent));
  hist ~name:"flash_request_duration_seconds"
    ~help:"Per-request latency, parse completion to response generation."
    (locked (fun () -> Obs.Histogram.copy t.latency));
  let fl = [ ("cache", "file") ] in
  c ~name:"flash_cache_hits_total" ~help:"File-cache hits." ~labels:fl
    (fun () -> File_cache.hits t.cache);
  c ~name:"flash_cache_misses_total" ~help:"File-cache misses." ~labels:fl
    (fun () -> File_cache.misses t.cache);
  c ~name:"flash_cache_evictions_total"
    ~help:"File-cache evictions under capacity pressure." ~labels:fl
    (fun () -> File_cache.evictions t.cache);
  c ~name:"flash_cache_admitted_total"
    ~help:"Entries admitted by the admission policy." ~labels:fl
    (fun () -> (cstat ()).Flash_cache.Store.admitted);
  c ~name:"flash_cache_rejected_total"
    ~help:"Entries rejected by the admission policy." ~labels:fl
    (fun () -> (cstat ()).Flash_cache.Store.rejected);
  g ~name:"flash_cache_entries" ~help:"Entries resident in the file cache."
    ~labels:fl
    (fun () -> float_of_int (File_cache.entries t.cache));
  g ~name:"flash_cache_resident_bytes"
    ~help:"Bytes resident in the file cache." ~labels:fl
    (fun () -> float_of_int (File_cache.bytes t.cache));
  g ~name:"flash_cache_capacity_bytes" ~help:"Configured file-cache capacity."
    ~labels:fl
    (fun () -> float_of_int (cstat ()).Flash_cache.Store.capacity);
  g ~name:"flash_cache_mapped_bytes"
    ~help:
      "File bytes currently mmapped (MP: summed over children at snapshot)."
    (fun () -> float_of_int (File_cache.mapped_bytes t.cache));
  (match t.helper with
  | None -> ()
  | Some h ->
      c ~name:"flash_helper_jobs_total"
        ~help:"Disk jobs dispatched to helper processes."
        (fun () -> Helper.dispatched h);
      g ~name:"flash_helper_queue_depth"
        ~help:"Helper jobs queued or in flight."
        (fun () -> float_of_int (Helper.queue_depth h));
      g ~name:"flash_helper_queue_depth_hwm"
        ~help:"Helper queue depth high-water mark."
        (fun () -> float_of_int (Helper.queue_depth_hwm h));
      hist ~name:"flash_helper_job_duration_seconds"
        ~help:"Helper disk-job latency."
        (fun () -> Helper.job_latency h));
  (* The loop series fold every loop this instance runs: sums, but the
     longest turn of any loop, and paused while any loop is. *)
  let sum f () = List.fold_left (fun acc lp -> acc + f lp) 0 t.loops in
  let sumf f () = List.fold_left (fun acc lp -> acc +. f lp) 0. t.loops in
  c ~name:"flash_loop_stalls_total"
    ~help:"Loop turns over the stall threshold."
    (sum (fun lp -> Obs.Loopstat.stalls lp.stat));
  g ~name:"flash_loop_max_stall_seconds" ~help:"Longest loop turn."
    (fun () ->
      List.fold_left
        (fun acc lp -> Float.max acc (Obs.Loopstat.max_turn lp.stat))
        0. t.loops);
  g ~name:"flash_loop_stall_threshold_seconds"
    ~help:"Loop turns longer than this count as stalls."
    (fun () -> t.config.stall_threshold);
  c ~name:"flash_loop_wakeups_total" ~help:"Readiness waits that returned."
    (sum (fun lp -> Obs.Loopstat.wakeups lp.stat));
  c ~name:"flash_loop_ready_fds_total"
    ~help:"Ready descriptors returned, summed over wakeups."
    (sum (fun lp -> Obs.Loopstat.ready_fds lp.stat));
  g ~name:"flash_loop_wait_seconds"
    ~help:"Cumulative seconds blocked awaiting readiness."
    (sumf (fun lp -> Obs.Loopstat.wait_time lp.stat));
  g ~name:"flash_loop_work_seconds"
    ~help:"Cumulative seconds processing ready events."
    (sumf (fun lp -> Obs.Loopstat.work_time lp.stat));
  c ~name:"flash_loop_timer_fires_total"
    ~help:"Timer-wheel expirations handled."
    (sum (fun lp -> Obs.Loopstat.timer_fires lp.stat));
  g ~name:"flash_timers_pending" ~help:"Timers pending in the wheels."
    (sumf (fun lp -> float_of_int (Evio.Timer_wheel.pending lp.wheel)));
  c ~name:"flash_accept_emfile_total" ~help:"Accepts shed on EMFILE/ENFILE."
    (fun () -> Obs.Counter.value t.accept_emfile);
  g ~name:"flash_accept_paused"
    ~help:"1 while a listen socket is parked by EMFILE backoff."
    (fun () ->
      if List.exists (fun lp -> lp.accept_paused) t.loops then 1. else 0.);
  (match t.tracer with
  | None -> ()
  | Some tracer ->
      c ~name:"flash_traces_completed_total" ~help:"Request traces completed."
        (locked (fun () -> Obs.Trace.completed tracer));
      c ~name:"flash_traces_evicted_total"
        ~help:"Traces evicted from the ring."
        (locked (fun () -> Obs.Trace.evicted tracer));
      g ~name:"flash_trace_ring_capacity" ~help:"Completed-trace ring size."
        (fun () -> float_of_int (Obs.Trace.capacity tracer)));
  (match t.guard with
  | None -> ()
  | Some guard ->
      g ~name:"flash_guard_state"
        ~help:
          "Shed level: 0 normal, 1 shedding idle keep-alives, 2 also \
           refusing new connections, 3 also refusing helper-queue \
           admission."
        (fun () -> float_of_int (Guard.level_code (Guard.level guard)));
      g ~name:"flash_guard_tracked_peers"
        ~help:"Peer addresses with a live guard ledger."
        (fun () -> float_of_int (Guard.tracked_peers guard));
      List.iter
        (fun reason ->
          c ~name:"flash_guard_shed_total"
            ~help:"Connections, requests and jobs shed by the guard."
            ~labels:[ ("reason", Guard.reason_label reason) ]
            (fun () -> Guard.shed_count guard reason))
        Guard.all_reasons);
  (match t.helper with
  | None -> ()
  | Some h ->
      g ~name:"flash_helper_queued"
        ~help:"Helper jobs waiting in the queue (not yet started)."
        (fun () -> float_of_int (Helper.queued h));
      g ~name:"flash_helper_in_flight"
        ~help:"Helper jobs a worker has started but not finished."
        (fun () -> float_of_int (Helper.in_flight h));
      c ~name:"flash_helper_rejected_total"
        ~help:"Helper dispatches refused by the bounded queue."
        (fun () -> Helper.rejected h));
  (match (t.warm, t.helper) with
  | Some w, Some h ->
      c ~name:"flash_warm_cycles_total" ~help:"Mining cycles completed."
        (fun () -> Obs.Counter.value w.w_cycles);
      c ~name:"flash_warm_candidates_ranked_total"
        ~help:"Warming candidates ranked across mining cycles."
        (fun () -> Obs.Counter.value w.w_ranked);
      c ~name:"flash_warm_prefetch_issued_total"
        ~help:"Prefetch jobs dispatched on the helpers' low-priority lane."
        (fun () -> Obs.Counter.value w.w_issued);
      c ~name:"flash_warm_prefetch_completed_total"
        ~help:"Prefetches that inserted a cache entry."
        (fun () -> Obs.Counter.value w.w_completed);
      c ~name:"flash_warm_prefetch_failed_total"
        ~help:"Prefetches that found no cacheable file."
        (fun () -> Obs.Counter.value w.w_failed);
      c ~name:"flash_warm_prefetch_rejected_total"
        ~help:"Prefetch dispatches refused by the bounded low lane."
        (fun () -> Helper.low_rejected h);
      c ~name:"flash_warm_hits_after_warm_total"
        ~help:"Prefetched entries later hit by client demand."
        (fun () -> Obs.Counter.value w.w_hits_after);
      g ~name:"flash_warm_pinned_bytes"
        ~help:"Bytes pinned in the hot tier."
        (fun () -> float_of_int (File_cache.pinned_bytes t.cache));
      g ~name:"flash_warm_pinned_entries"
        ~help:"Entries pinned in the hot tier."
        (fun () -> float_of_int (File_cache.pinned_count t.cache));
      g ~name:"flash_warm_tracked_paths"
        ~help:"Distinct paths the miner is tracking."
        (fun () -> float_of_int (Flash_warm.Miner.tracked w.w_miner))
  | _ -> ());
  match t.slo with
  | None -> ()
  | Some slo ->
      g ~name:"flash_slo_state" ~help:"0 healthy, 1 degraded, 2 breached."
        (fun () -> float_of_int (Obs.Slo.state_code slo));
      g ~name:"flash_slo_burn_ratio"
        ~help:
          "Fraction of recent traffic-bearing windows violating the latency \
           target."
        (fun () -> Obs.Slo.burn slo);
      g ~name:"flash_slo_windows"
        ~help:"Traffic-bearing windows in the SLO horizon."
        (fun () -> float_of_int (Obs.Slo.windows slo));
      inf ~name:"flash_slo_info"
        ~help:"Latency SLO configuration (constant 1)."
        ~labels:
          [
            ("quantile", Printf.sprintf "%g" (Obs.Slo.quantile slo));
            ("target_ms", Printf.sprintf "%g" (Obs.Slo.target_ms slo));
          ]

(* ------------------------------------------------------------------ *)
(* Output plumbing                                                     *)
(* ------------------------------------------------------------------ *)

(* Send-path accounting, all modes. *)
let count_send t ~writev ~copied ~sent =
  if writev <> 0 || copied <> 0 || sent <> 0 then begin
    Mutex.lock t.obs_mutex;
    Obs.Counter.add t.writev_calls writev;
    Obs.Counter.add t.bytes_copied copied;
    Obs.Counter.add t.bytes_sent sent;
    Mutex.unlock t.obs_mutex
  end

(* Strings (error bodies, status/trace payloads, CGI chunks, per-request
   headers) enter the send queue by being copied once into an off-heap
   buffer — a counted copy.  Cache-hit responses bypass this entirely:
   their header and body slices come straight from the cache entry. *)
let enqueue_string t conn s =
  let copied = Sendq.push_string conn.outq s in
  count_send t ~writev:0 ~copied ~sent:0

let render_header ?last_modified ?(extra = []) t ~status ~content_type
    ~content_length ~keep =
  Http.Response.header ~status ?content_type ?content_length ?last_modified
    ~extra ~keep_alive:keep ~server:t.config.server_name
    ~date:(Unix.gettimeofday ()) ?align ()

(* Every response ends here: the connection goes back to reading (or
   closes once flushed), and the latency and write-span seam fires. *)
let response_queued t conn ~keep =
  if not keep then conn.close_after_flush <- true;
  conn.state <- Reading;
  record_latency t conn

let enqueue_error ?(target = "-") ?(meth = "GET") ?extra t conn status ~keep
    ~head_only =
  t.n_errors <- t.n_errors + 1;
  count_status t (Http.Status.code status);
  log_access ~conn t ~meth ~target ~status:(Http.Status.code status) ~bytes:0;
  let body = Http.Response.error_body status in
  let header =
    render_header t ~status ?extra ~content_type:(Some "text/html")
      ~content_length:(Some (String.length body)) ~keep
  in
  enqueue_string t conn header;
  if not head_only then enqueue_string t conn body;
  response_queued t conn ~keep

let cancel_timer lp slot =
  match slot with
  | Some tm ->
      Evio.Timer_wheel.cancel lp.wheel tm;
      None
  | None -> None

(* Guard bookkeeping sugar: count a shed decision, and build the
   Retry-After advice carried on guard-driven 429/503 responses. *)
let guard_shed t reason =
  match t.guard with Some g -> Guard.shed g reason | None -> ()

let guard_retry t =
  [
    Http.Response.retry_after
      (match t.guard with
      | Some g -> (Guard.config g).Guard.retry_after
      | None -> 1);
  ]

(* ------------------------------------------------------------------ *)
(* HTTP/1.1 semantics: conditionals, ranges, content negotiation       *)
(* ------------------------------------------------------------------ *)

(* Does the server advertise alternate codings at all?  When it does,
   every file response carries [Vary: Accept-Encoding] — deterministic
   across requests so cached headers stay valid. *)
let vary_extra t =
  if t.config.gzip_precompressed then [ ("Vary", "Accept-Encoding") ] else []

(* Did the client negotiate the gzip coding (and can we offer one)? *)
let wants_gzip t (req : Http.Request.t) =
  t.config.gzip_precompressed
  && Http.Negotiate.choose ~gzip_available:true
       (Http.Request.header req "accept-encoding")
     = Http.Negotiate.Gzip

let etag_of_string s =
  match Http.Etag.parse s with
  | Some e -> e
  | None -> { Http.Etag.weak = false; opaque = s }

(* One response plan per (request, selected representation): the
   conditional evaluation (RFC 9110 §13.2.2 precedence), then — for a
   proceeding GET — If-Range gating the Range field.  [size] is the
   selected representation's length (a gzip variant plans over its
   compressed bytes). *)
type plan =
  | P_full
  | P_not_modified
  | P_slice of int * int  (* body window: off, len *)
  | P_unsatisfiable
  | P_precondition_failed

let plan_for ~(req : Http.Request.t) ~etag ~mtime ~size =
  let header = Http.Request.header req in
  match Http.Conditional.evaluate ~meth:req.Http.Request.meth ~header ~etag
          ~mtime
  with
  | Http.Conditional.Not_modified -> P_not_modified
  | Http.Conditional.Precondition_failed -> P_precondition_failed
  | Http.Conditional.Proceed -> (
      match req.Http.Request.meth with
      | Http.Request.Head -> P_full  (* Range is GET-only (§14.2) *)
      | _ -> (
          match header "range" with
          | None -> P_full
          | Some r ->
              if not (Http.Conditional.if_range_permits ~header ~etag ~mtime)
              then P_full
              else (
                match Http.Range.plan r ~size with
                | Http.Range.Whole -> P_full
                | Http.Range.Single { off; len } -> P_slice (off, len)
                | Http.Range.Unsatisfiable -> P_unsatisfiable)))

(* A generated 200: the status, metrics and trace views.  These bypass
   the access log: a monitoring scraper polling every few seconds would
   otherwise drown the real traffic records. *)
let enqueue_view t conn ~content_type body ~keep ~head_only =
  count_status t 200;
  enqueue_string t conn
    (render_header t ~status:Http.Status.Ok ~content_type:(Some content_type)
       ~content_length:(Some (String.length body))
       ~keep);
  if not head_only then enqueue_string t conn body;
  response_queued t conn ~keep

let status_view t (req : Http.Request.t) =
  match status_window req with
  | Some n -> ("application/json", window_body t n)
  | None ->
      let json = wants_json req in
      ( (if json then "application/json" else "text/plain"),
        Obs.Exposition.render_listing ~json (collect_for t) )

(* ------------------------------------------------------------------ *)
(* Serving files                                                       *)
(* ------------------------------------------------------------------ *)

(* The four headers an entry answers with (200 and 304, keep-alive and
   close), rendered in one pass for a body of [len] bytes. *)
let entry_headers t ~etag ~mtime ~content_type ~encoding ~len =
  let vary = vary_extra t in
  Http.Response.cached ~server:t.config.server_name ?align
    ~date:(Unix.gettimeofday ()) ~last_modified:mtime ~content_type
    ~content_length:len
    ~ok_extra:
      (("ETag", etag) :: ("Accept-Ranges", "bytes")
      :: (match encoding with
         | Some e -> ("Content-Encoding", e) :: vary
         | None -> vary))
    ~not_modified_extra:(("ETag", etag) :: vary)
    ()

(* What an entry stands for: a file as it is, or the gzip variant of an
   origin whose validators it carries. *)
type representation = Identity | Gzip_of of { mtime : float; size : int }

(* A fresh cache entry around a body and its headers.  The header
   render and a read copy of the body are the miss path's counted
   copies, charged once here; a mapped body costs none. *)
let build_entry t ~body ~lease ~headers ~mtime ~size ~etag ~encoding =
  let body_copied =
    match lease with
    | Some l when File_cache.is_mapping l -> 0
    | Some _ | None -> Bigarray.Array1.dim body
  in
  count_send t ~writev:0
    ~copied:(body_copied + String.length headers.Http.Response.text)
    ~sent:0;
  File_cache.make_entry ~body ~lease ~headers ~mtime ~size ~etag ~encoding

(* Leases on entries held by the code serving them (see
   {!File_cache}): a hit takes one under the cache lock, a fill builds
   its entry holding one, and either ends once the response is
   queued. *)
let hold (e : File_cache.entry) =
  Option.iter File_cache.acquire e.File_cache.mapped

let unhold (e : File_cache.entry) =
  Option.iter File_cache.release e.File_cache.mapped

(* A lookup's result, leased; call under the cache lock. *)
let held found =
  Option.iter hold found;
  found

(* A hit, leased. *)
let find_held t full =
  match t.cache_lock with
  | None -> held (File_cache.find_trusted t.cache full)
  | Some m ->
      Mutex.protect m (fun () -> held (File_cache.find_trusted t.cache full))

(* Whether a body joins the cache.  A larger one is built and sent the
   same way, and leaves memory at its last send. *)
let cacheable t size = size <= t.config.max_cached_file

(* What one miss-path fill found at a path. *)
type fill =
  | Filled of File_cache.entry
      (* the caller holds a lease; inserted when [cacheable] *)
  | Large  (* [~resident] only: too large to cache, left to a helper *)
  | Not_regular
  | Not_resident  (* [~resident] only: a page may be on disk *)
  | Failed of Unix.error  (* open or fstat *)
  | Unloadable  (* the body could be neither read nor mapped *)

(* Open a path without blocking (a FIFO swapped in for a file must not
   stall the loop) and fstat the descriptor: an open regular file with
   its stats, or the miss.  Every body the server sends, origin or
   [.gz] sibling, is opened here. *)
let open_regular full =
  let flags = [ Unix.O_RDONLY; Unix.O_NONBLOCK; Unix.O_CLOEXEC ] in
  match Unix.openfile full flags 0 with
  | exception Unix.Unix_error (Unix.ENXIO, _, _) ->
      Error Not_regular (* a socket *)
  | exception Unix.Unix_error (e, _, _) -> Error (Failed e)
  | fd -> (
      match Unix.fstat fd with
      | st when st.Unix.st_kind = Unix.S_REG -> Ok (fd, st)
      | _ ->
          Unix.close fd;
          Error Not_regular
      | exception Unix.Unix_error (e, _, _) ->
          Unix.close fd;
          Error (Failed e))

(* Reads of a file that keeps shrinking under them before its body is
   taken as read. *)
let fill_reads = 3

let encoding_of = function Identity -> None | Gzip_of _ -> Some "gzip"

(* The validators, ETag and headers of an entry whose body is [len]
   bytes read from a file with [mtime]. *)
let describe t repr ~content_type ~mtime ~len =
  let mtime, size, suffix =
    match repr with
    | Identity -> (mtime, len, "")
    | Gzip_of o -> (o.mtime, o.size, "-gz")
  in
  let etag = Http.Etag.make ~suffix ~mtime ~size () in
  ( mtime,
    size,
    etag,
    entry_headers t ~etag ~mtime ~content_type ~encoding:(encoding_of repr)
      ~len )

(* The entry over [fd], fstat'd as [st], leased for the caller: its
   headers are rendered for the fstat's size first, so a read copy is
   read in place behind them, and the body is copied or mapped at that
   size, so a file that shrank since an earlier stat is never mapped
   past its end.  A read copy that comes up short (the file shrank
   after the fstat) is read again after a fresh fstat, and the last
   read is taken at its own length, its headers rendered again (no
   longer than the first, so they still fit), so a body always agrees
   with its Content-Length and ETag.  With [~resident] the body is
   made only when no byte has to come from disk ([None] otherwise),
   and a short read is [None] too.  A body too large to cache is never
   read whole in place of a mapping: where it cannot be mapped, the
   load fails.
   @raise Unix.Unix_error or Failure when the body cannot be had. *)
let load ?resident t repr ~content_type fd (st : Unix.stats) =
  let rec go (st : Unix.stats) reads =
    let size = st.Unix.st_size and mtime = st.Unix.st_mtime in
    let ((_, _, _, headers) as described) =
      describe t repr ~content_type ~mtime ~len:size
    in
    let head = String.length headers.Http.Response.text in
    let made =
      match resident with
      | None ->
          Some
            (File_cache.map_body ~max_copy:t.config.max_cached_file ~head fd
               ~size)
      | Some trust_mincore ->
          File_cache.map_resident ~head ~trust_mincore fd ~size
    in
    match made with
    | None -> None
    | Some (body, lease) ->
        Option.iter File_cache.acquire lease;
        let got = Bigarray.Array1.dim body in
        if got = size || reads = 1 then begin
          let mtime, size, etag, headers =
            if got = size then described
            else describe t repr ~content_type ~mtime ~len:got
          in
          Some
            (build_entry t ~body ~lease ~headers ~mtime ~size ~etag
               ~encoding:(encoding_of repr))
        end
        else begin
          Option.iter File_cache.release lease;
          go (Unix.fstat fd) (reads - 1)
        end
  in
  go st fill_reads

(* The one miss path, in every mode: [open_regular], [load] the entry
   and insert it when it is [cacheable].  With [~resident] (AMPED's
   inline attempt) the entry is built only when no byte has to come
   from disk, and only for a cacheable file, since asking [mincore]
   about a larger one would stall the loop in proportion to its size: a
   small file's copy is read with [RWF_NOWAIT], which the kernel
   answers for any caller, while [mincore] decides for a mapping and is
   believed only for the files it tells the truth about.  A short
   inline read goes to a helper.  [slow_read] models cold media, so
   while it is set the answer is always "not resident". *)
let fill ?(resident = false) t full =
  match open_regular full with
  | Error miss -> miss
  | Ok (fd, st) when resident && not (cacheable t st.Unix.st_size) ->
      Unix.close fd;
      Large
  | Ok (fd, st) -> (
      let content_type = Http.Mime.of_path full in
      let loaded =
        if not resident then
          match load t Identity ~content_type fd st with
          | Some entry -> Ok entry
          | None -> Error Unloadable
          | exception (Unix.Unix_error _ | Failure _) -> Error Unloadable
        else if t.config.slow_read <> None then Error Not_resident
        else
          let trust_mincore =
            File_cache.trusts_mincore ~owner:st.Unix.st_uid ~euid
          in
          match load ~resident:trust_mincore t Identity ~content_type fd st with
          | Some entry -> Ok entry
          | None -> Error Not_resident
      in
      Unix.close fd;
      match loaded with
      | Error miss -> miss
      | Ok entry ->
          if cacheable t entry.File_cache.size then
            with_cache_lock t (fun () -> File_cache.insert t.cache full entry);
          Filled entry)

let remember t full =
  if Hashtbl.length t.known >= known_paths_limit then Hashtbl.reset t.known;
  Hashtbl.replace t.known full ()

(* Obtain the gzip representation of [full] for a client that
   negotiated it: the cached variant if its origin validators still
   hold, else a fresh [.gz] sibling (never one staler than the origin).
   A [cacheable] variant is cached beside its origin under the same
   policy and budget; [None] means serve identity.  A variant comes
   back leased, like the origin it stands in for. *)
let gzip_entry t ~full ~(origin : File_cache.entry) =
  let mtime = origin.File_cache.mtime and size = origin.File_cache.size in
  match
    with_cache_lock t (fun () ->
        held
          (File_cache.find_variant t.cache full ~encoding:"gzip" ~mtime ~size))
  with
  | Some e -> Some e
  | None -> (
      (* The sibling is opened and sized exactly as its origin is; one
         older than the origin is stale. *)
      match open_regular (full ^ ".gz") with
      | Error _ -> None
      | Ok (fd, st) when st.Unix.st_mtime < mtime ->
          Unix.close fd;
          None
      | Ok (fd, st) -> (
          match
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () ->
                load t (Gzip_of { mtime; size })
                  ~content_type:(Http.Mime.of_path full) fd st)
          with
          | exception (Unix.Unix_error _ | Failure _) -> None
          | None -> None
          | Some entry ->
              if cacheable t (File_cache.body_length entry) then
                with_cache_lock t (fun () ->
                    File_cache.insert_variant t.cache full ~encoding:"gzip"
                      entry);
              Some entry))

(* Swap in the gzip representation when the client negotiated one and
   we can produce it; otherwise the identity entry stands. *)
let negotiate_entry t (req : Http.Request.t) ~full entry =
  if wants_gzip t req then
    match gzip_entry t ~full ~origin:entry with
    | Some gz -> gz
    | None -> entry
  else entry

(* A response counted by status, and logged when there is a log. *)
let note_response t conn ~full ~meth ~target status ~bytes =
  count_status t status;
  if t.log_channel <> None then
    log_access ~conn ~path:full t ~meth ~target ~status ~bytes

(* A placeholder for the entity-tag of a request that carries none to
   compare: parsing the entry's own is work a plain GET need not do. *)
let no_etag = { Http.Etag.weak = false; opaque = "" }

let compares_etags (req : Http.Request.t) =
  Http.Request.header req "if-match" <> None
  || Http.Request.header req "if-none-match" <> None
  || Http.Request.header req "if-range" <> None

(* The single dispatch point for serving a file, in every mode: evaluate
   conditionals and the Range field against the selected
   representation's validators, then take the path the plan names.  An
   entry, cached or too large to cache, answers 200 and 304 with its
   pre-rendered headers and any body as a window of its copy or
   mapping — one gather write, zero body copies.  A 206's Content-Range
   varies per request, so it is rendered here (a counted copy). *)
let enqueue_response t conn (req : Http.Request.t) ~full
    (e : File_cache.entry) ~keep =
  let head_only = req.Http.Request.meth = Http.Request.Head in
  let target = req.Http.Request.raw_target in
  let meth = Http.Request.meth_to_string req.Http.Request.meth in
  let etag = e.File_cache.etag and mtime = e.File_cache.mtime in
  let size = File_cache.body_length e in
  let parsed = if compares_etags req then etag_of_string etag else no_etag in
  match plan_for ~req ~etag:parsed ~mtime ~size with
  | P_precondition_failed ->
      enqueue_error t conn Http.Status.Precondition_failed ~keep ~head_only
        ~target ~meth
  | P_unsatisfiable ->
      enqueue_error t conn Http.Status.Range_not_satisfiable ~keep ~head_only
        ~target ~meth
        ~extra:[ ("Content-Range", Http.Range.content_range_unsatisfied ~size) ]
  | P_not_modified ->
      note_response t conn ~full ~meth ~target 304 ~bytes:0;
      Sendq.push_entry conn.outq e ~body:false
        ~header:
          (if keep then e.File_cache.header_304_keep
           else e.File_cache.header_304_close);
      response_queued t conn ~keep
  | P_full ->
      note_response t conn ~full ~meth ~target 200
        ~bytes:(if head_only then 0 else size);
      Sendq.push_entry conn.outq e ~body:(not head_only)
        ~header:
          (if keep then e.File_cache.header_keep
           else e.File_cache.header_close);
      response_queued t conn ~keep
  | P_slice (off, len) ->
      note_response t conn ~full ~meth ~target 206 ~bytes:len;
      let extra =
        [
          ("Content-Range", Http.Range.content_range ~off ~len ~size);
          ("ETag", etag);
          ("Accept-Ranges", "bytes");
        ]
        @ (match e.File_cache.encoding with
          | Some e -> [ ("Content-Encoding", e) ]
          | None -> [])
        @ vary_extra t
      in
      enqueue_string t conn
        (render_header t ~status:Http.Status.Partial_content
           ~last_modified:mtime ~extra
           ~content_type:(Some (Http.Mime.of_path full))
           ~content_length:(Some len) ~keep);
      Sendq.push_buffer conn.outq e.File_cache.body ~off ~len
        e.File_cache.mapped;
      response_queued t conn ~keep

(* Serve an entry (a hit or a fresh fill) that arrives with the
   caller's lease; the lease, and the variant's when one was chosen,
   end once the response is queued. *)
let serve_entry t conn req ~full entry ~keep =
  let chosen = negotiate_entry t req ~full entry in
  enqueue_response t conn req ~full chosen ~keep;
  if chosen != entry then unhold chosen;
  unhold entry

(* A miss served by one fill: a helper's completion, or SPED/MP/MT
   inline.  The fill's entry is served like a hit, gzip negotiation
   included, and a cacheable one stays cached — even a 304 warms the
   cache.  [refused] is the status for a path that is not a regular
   file.  A path a helper found cacheable joins the known paths; a
   larger one goes to a helper on every miss. *)
let serve_fill t conn (req : Http.Request.t) full ~keep ~refused =
  let error status =
    enqueue_error t conn status ~keep
      ~head_only:(req.Http.Request.meth = Http.Request.Head)
      ~target:req.Http.Request.raw_target
      ~meth:(Http.Request.meth_to_string req.Http.Request.meth)
  in
  match fill t full with
  | Filled entry ->
      if t.helper <> None && cacheable t entry.File_cache.size then
        remember t full;
      serve_entry t conn req ~full entry ~keep
  | Not_regular -> error refused
  | Unloadable -> error Http.Status.Internal_server_error
  | Failed _ | Not_resident | Large -> error Http.Status.Not_found

(* AMPED's miss on a known path (§3.4, §4.2): the loop fills it itself
   when every page is in core.  [false] sends the miss to a helper as
   before — a vanished or replaced file, or one grown too large to
   cache (forgotten here), a page not in core, or an answer the kernel
   may have faked. *)
let fill_resident t conn req full ~keep =
  Hashtbl.mem t.known full
  &&
  (begin_work t conn "fill";
   match fill ~resident:true t full with
   | Filled entry ->
       serve_entry t conn req ~full entry ~keep;
       true
   | miss ->
       (match miss with
       | Large | Not_regular | Failed Unix.ENOENT ->
           Hashtbl.remove t.known full
       | _ -> ());
       end_work conn;
       false)

(* ------------------------------------------------------------------ *)
(* CGI                                                                 *)
(* ------------------------------------------------------------------ *)

let start_cgi t conn (req : Http.Request.t) full ~keep:_ =
  (* CGI output has no Content-Length: delimit by connection close. *)
  match Unix.stat full with
  | exception Unix.Unix_error _ ->
      enqueue_error t conn Http.Status.Not_found ~keep:false ~head_only:false
  | st when st.Unix.st_kind <> Unix.S_REG || st.Unix.st_perm land 0o111 = 0 ->
      enqueue_error t conn Http.Status.Forbidden ~keep:false ~head_only:false
  | _ -> (
      match Unix.pipe ~cloexec:true () with
      | exception Unix.Unix_error _ ->
          enqueue_error t conn Http.Status.Internal_server_error ~keep:false
            ~head_only:false
      | pipe_read, pipe_write ->
          let env =
            [|
              "GATEWAY_INTERFACE=CGI/1.1";
              "REQUEST_METHOD=" ^ Http.Request.meth_to_string req.Http.Request.meth;
              "QUERY_STRING=" ^ Option.value ~default:"" req.Http.Request.query;
              "SCRIPT_NAME=" ^ req.Http.Request.path;
              "SERVER_SOFTWARE=" ^ t.config.server_name;
            |]
          in
          (* A script the kernel will not run (no #! line, a missing
             interpreter) fails the spawn: that request gets a 500, and
             the server keeps serving. *)
          match
            let dev_null =
              Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0
            in
            Fun.protect
              ~finally:(fun () -> Unix.close dev_null)
              (fun () -> Cgi.spawn full ~env ~stdin:dev_null ~stdout:pipe_write)
          with
          | exception Unix.Unix_error _ ->
              Unix.close pipe_read;
              Unix.close pipe_write;
              enqueue_error t conn Http.Status.Internal_server_error
                ~keep:false ~head_only:false
          | pid ->
              Unix.close pipe_write;
              Unix.set_nonblock pipe_read;
              count_status t 200;
              let header =
                render_header t ~status:Http.Status.Ok ~content_type:None
                  ~content_length:None ~keep:false
              in
              enqueue_string t conn header;
              conn.close_after_flush <- false;
              conn.state <- Streaming_cgi (pipe_read, pid);
              t.cgi_inflight <- t.cgi_inflight + 1;
              (* Wall-clock deadline: a wedged script is killed rather
                 than holding the connection (and a helper-less loop's
                 pipe slot) forever. *)
              conn.cgi_timer <-
                Some
                  (Evio.Timer_wheel.schedule conn.loop.wheel
                     ~at:(Unix.gettimeofday () +. cgi_timeout)
                     (T_cgi conn)))

(* ------------------------------------------------------------------ *)
(* Request processing                                                  *)
(* ------------------------------------------------------------------ *)

let process_request t conn (req : Http.Request.t) =
  t.n_requests <- t.n_requests + 1;
  let keep = Http.Request.keep_alive req in
  let head_only = req.Http.Request.meth = Http.Request.Head in
  match req.Http.Request.meth with
  | Http.Request.Post | Http.Request.Other _ ->
      enqueue_error t conn Http.Status.Not_implemented ~keep:false ~head_only
  | Http.Request.Get | Http.Request.Head -> (
      if is_status_request t req then
        let content_type, body = status_view t req in
        enqueue_view t conn ~content_type body ~keep ~head_only
      else if is_metrics_request t req then
        enqueue_view t conn ~content_type:"text/plain; version=0.0.4"
          (metrics_body t) ~keep ~head_only
      else if is_trace_request t req then
        enqueue_view t conn ~content_type:"application/json" (trace_body t)
          ~keep ~head_only
      else begin
        (* Pathname translation and cache lookup: the trace's resolve
           span, from the stamp that ended the parse. *)
        match resolve t req with
        | Error status ->
            looked_up t conn;
            enqueue_error t conn status ~keep ~head_only
        | Ok path when is_cgi path ->
            looked_up t conn;
            let cgi_full =
              match t.guard with
              | Some g -> (
                  match (Guard.config g).Guard.max_cgi_inflight with
                  | Some cap -> t.cgi_inflight >= cap
                  | None -> false)
              | None -> false
            in
            if not t.config.enable_cgi then
              enqueue_error t conn Http.Status.Forbidden ~keep ~head_only
            else if cgi_full then begin
              (* Every CGI slot holds a live child process; refuse early
                 with advice rather than fork past the cap. *)
              guard_shed t Guard.Cgi_limit;
              enqueue_error ~extra:(guard_retry t) t conn
                Http.Status.Service_unavailable ~keep ~head_only
            end
            else begin
              begin_work t conn "cgi";
              start_cgi t conn req (t.config.docroot ^ path) ~keep
            end
        | Ok path -> (
            let full = t.config.docroot ^ path in
            let held = find_held t full in
            looked_up t conn;
            match held with
            | Some entry ->
                (* Attribute the hit when a prefetch put this entry
                   here before any client asked for it. *)
                (match t.warm with
                | Some w when Hashtbl.mem w.w_warmed full ->
                    Hashtbl.remove w.w_warmed full;
                    Obs.Counter.incr w.w_hits_after
                | _ -> ());
                serve_entry t conn req ~full entry ~keep
            | None -> (
                match t.helper with
                | Some _ when fill_resident t conn req full ~keep -> ()
                | Some helper -> (
                    (* AMPED: disk work (stat + read) in a helper.  The
                       queue-wait and disk spans are stitched in when
                       the completion comes back.  Two gates first: the
                       shedder can refuse queue admission outright, and
                       the bounded queue can refuse at the door — both
                       answer an early 503 with advice instead of
                       letting the backlog grow. *)
                    let admission =
                      match t.guard with
                      | Some g -> Guard.queue_admission g
                      | None -> Guard.Admit
                    in
                    match admission with
                    | Guard.Reject _ ->
                        enqueue_error ~extra:(guard_retry t) t conn
                          Http.Status.Service_unavailable ~keep ~head_only
                    | Guard.Admit ->
                        if Helper.dispatch helper ~key:conn.key ~path:full
                        then begin
                          Hashtbl.replace conn.loop.by_helper_key conn.key
                            conn;
                          conn.state <- Waiting_helper (req, full)
                        end
                        else begin
                          guard_shed t Guard.Helper_queue;
                          enqueue_error ~extra:(guard_retry t) t conn
                            Http.Status.Service_unavailable ~keep ~head_only
                        end)
                | None -> (
                    (* SPED: inline — the whole loop stalls on a miss,
                       and the disk span lands on the main-loop track. *)
                    begin_work t conn "disk-read";
                    slow_read_hook t full;
                    serve_fill t conn req full ~keep
                      ~refused:Http.Status.Forbidden)))
      end)

(* Parse the head at the front of [src[0, len)]: [conn.inbuf], or, when
   nothing was pending, the loop's scratch straight after the read, so
   a request that arrives whole is parsed where it landed.  Whatever the
   parse leaves (a partial head, pipelined requests) moves to
   [conn.inbuf]. *)
let rec parse_from t conn src len ~pending =
  if Float.is_nan conn.stamps.head then open_request conn;
  (* Slow-header defense: from the first byte of a request head, the
     rest must arrive within the deadline.  One one-shot timer per
     head; cancelled the moment the head parses (or fails to). *)
  (match t.guard with
  | Some g
    when conn.hdr_timer = None && (Guard.config g).Guard.header_deadline > 0.
    ->
      conn.hdr_timer <-
        Some
          (Evio.Timer_wheel.schedule conn.loop.wheel
             ~at:(Unix.gettimeofday () +. (Guard.config g).Guard.header_deadline)
             (T_hdr conn))
  | _ -> ());
  let from = if pending then conn.scanned else 0 in
  match Http.Request.parse_sub src ~pos:0 ~len ~from with
  | Http.Request.Incomplete ->
      if not pending then conn.inbuf <- String.sub src 0 len;
      (* Every offset but the last two is decided. *)
      conn.scanned <- Stdlib.max 0 (len - 2)
  | Http.Request.Bad _ ->
      conn.hdr_timer <- cancel_timer conn.loop conn.hdr_timer;
      conn.inbuf <- "";
      conn.scanned <- 0;
      head_parsed conn ~meth:"" ~target:"bad-request";
      t.n_requests <- t.n_requests + 1;
      enqueue_error t conn Http.Status.Bad_request ~keep:false
        ~head_only:false
  | Http.Request.Complete (req, consumed) ->
      conn.hdr_timer <- cancel_timer conn.loop conn.hdr_timer;
      conn.inbuf <-
        (if consumed = len then ""
         else String.sub src consumed (len - consumed));
      conn.scanned <- 0;
      head_parsed conn
        ~meth:(Http.Request.meth_to_string req.Http.Request.meth)
        ~target:req.Http.Request.raw_target;
      let rate_verdict =
        match t.guard with
        | Some g -> Guard.on_request g ~peer:conn.peer
        | None -> Guard.Admit
      in
      (match rate_verdict with
      | Guard.Reject _ ->
          (* Over the per-peer rate cap (the guard counted the shed):
             429 with advice, and drop the connection so a looping
             client can't ride keep-alive. *)
          t.n_requests <- t.n_requests + 1;
          enqueue_error ~extra:(guard_retry t) t conn
            Http.Status.Too_many_requests ~keep:false ~head_only:false
      | Guard.Admit -> process_request t conn req);
      (* Pipelined requests are handled once the response drains. *)
      if Sendq.is_empty conn.outq then try_parse t conn

and try_parse t conn =
  if conn.state = Reading && conn.inbuf <> "" then
    parse_from t conn conn.inbuf (String.length conn.inbuf) ~pending:true

(* ------------------------------------------------------------------ *)
(* Connection IO                                                       *)
(* ------------------------------------------------------------------ *)

(* Forget the CGI pipe's registration (before the fd is closed, so the
   backend never holds a recycled descriptor). *)
let unregister_cgi conn =
  match conn.cgi_fd_registered with
  | None -> ()
  | Some pfd ->
      Evio.Backend.deregister conn.loop.evio pfd;
      Hashtbl.remove conn.loop.fd_owners pfd;
      conn.cgi_fd_registered <- None

(* The listen fd's read interest: parked while EMFILE backoff runs and,
   on a worker loop, while it holds its one connection. *)
let sync_listen t lp =
  if lp.accepts then
    Evio.Backend.modify lp.evio t.listen_fd
      ~read:
        (not (lp.accept_paused || (lp.single && Hashtbl.length lp.conns > 0)))
      ~write:false

let close_conn t conn =
  if conn.alive then begin
    conn.alive <- false;
    (* A request still in flight (client hung up, error path) gets its
       trace closed here rather than lost. *)
    finish_request ~closing:true t conn;
    unregister_cgi conn;
    conn.idle_timer <- cancel_timer conn.loop conn.idle_timer;
    conn.cgi_timer <- cancel_timer conn.loop conn.cgi_timer;
    conn.hdr_timer <- cancel_timer conn.loop conn.hdr_timer;
    conn.xfer_timer <- cancel_timer conn.loop conn.xfer_timer;
    (match t.guard with
    | Some g -> Guard.on_disconnect g ~peer:conn.peer
    | None -> ());
    (match conn.state with
    | Streaming_cgi (fd, pid) ->
        (* The script still runs and its output has nowhere to go. *)
        t.cgi_inflight <- t.cgi_inflight - 1;
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Cgi.finish pid
    | Reading | Waiting_helper _ -> ());
    Sendq.clear conn.outq;
    let lp = conn.loop in
    Hashtbl.remove lp.conns conn.key;
    Hashtbl.remove lp.by_helper_key conn.key;
    if conn.registered then begin
      Evio.Backend.deregister lp.evio conn.fd;
      conn.registered <- false
    end;
    Hashtbl.remove lp.fd_owners conn.fd;
    with_obs_lock t (fun () -> Obs.Gauge.decr t.active);
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    sync_listen t lp
  end

(* Reads land in the loop's scratch, so an idle connection holds no
   read buffer: one that arrives with nothing pending is parsed there,
   and only bytes left over join [inbuf].  The cap bounds parse-buffer
   growth against a client streaming junk or very deep pipelines. *)
let max_inbuf = 262144

let handle_readable t conn =
  let buf = conn.loop.scratch in
  match Unix.read conn.fd buf 0 (Bytes.length buf) with
  | 0 -> close_conn t conn
  | n ->
      conn.last_active <- conn.loop.now;
      conn.recv_bytes <- conn.recv_bytes + n;
      let have = String.length conn.inbuf in
      if have = 0 then
        parse_from t conn (Bytes.unsafe_to_string buf) n ~pending:false
      else if have + n > max_inbuf then close_conn t conn
      else begin
        let joined = Bytes.create (have + n) in
        Bytes.blit_string conn.inbuf 0 joined 0 have;
        Bytes.blit buf 0 joined have n;
        conn.inbuf <- Bytes.unsafe_to_string joined;
        try_parse t conn
      end
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error _ -> close_conn t conn

(* Flush queued slices with gather writes: everything at the head of
   the queue — header + body of one response, or several pipelined
   responses — goes to the kernel in one [writev].  A partial write
   advances slice offsets in place and waits for the next writability
   event.  A write that fails ends the connection: among such failures
   is EFAULT, from a mapped file that shrank under its Content-Length,
   whose body can no longer be completed. *)
let handle_writable t conn =
  conn.last_active <- conn.loop.now;
  let progress = ref true in
  (try
     while !progress && not (Sendq.is_empty conn.outq) do
       let n = Sendq.writev conn.outq conn.fd in
       count_send t ~writev:1 ~copied:0 ~sent:n;
       conn.sent_bytes <- conn.sent_bytes + n;
       if not (Sendq.wrote_all conn.outq) then progress := false
     done
   with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | Unix.Unix_error _ -> close_conn t conn);
  if conn.alive && Sendq.is_empty conn.outq then begin
    match conn.state with
    | Streaming_cgi _ -> ()  (* more output may come from the pipe *)
    | Reading | Waiting_helper _ ->
        (* Response fully flushed: the request closes here — unless it
           has no response yet, the sign that these bytes were not its
           response. *)
        if not (Float.is_nan conn.stamps.ready) then finish_request t conn;
        if conn.close_after_flush then close_conn t conn
        else try_parse t conn
  end

(* Reconcile a connection with its state; every path that queues output
   (a client read, a helper completion, a CGI chunk, the 408 timer) ends
   here.  A connection not already waiting for writability has its
   queue written now, in the turn that filled it, rather than after
   another readiness wait.  Once per connection per turn: a pipelined
   request parsed after that flush is answered on the next turn, so one
   client's pipeline cannot hold the loop.  Then interest follows state:
   read while parsing, write while bytes remain (a write that would
   block, or that pipelined answer), and the CGI pipe while streaming.
   Diffed against the last pushed interest so an unchanged connection
   costs no syscall ([epoll_ctl]) and no rebuild (poll). *)
let sync_conn t conn =
  if
    conn.alive && (not conn.want_write)
    && (not (Sendq.is_empty conn.outq))
    && conn.flushed_turn <> Obs.Loopstat.wakeups conn.loop.stat
  then begin
    conn.flushed_turn <- Obs.Loopstat.wakeups conn.loop.stat;
    handle_writable t conn
  end;
  if conn.alive then begin
    let r = conn.state = Reading in
    let w = not (Sendq.is_empty conn.outq) in
    if (not conn.registered) || r <> conn.want_read || w <> conn.want_write
    then begin
      Evio.Backend.modify conn.loop.evio conn.fd ~read:r ~write:w;
      conn.registered <- true;
      conn.want_read <- r;
      conn.want_write <- w
    end;
    match (conn.state, conn.cgi_fd_registered) with
    | Streaming_cgi (pfd, _), None -> (
        (* The CGI pipe fd can itself land beyond select's FD_SETSIZE;
           a stream we cannot wait on must drop the connection rather
           than the loop. *)
        match
          Evio.Backend.register conn.loop.evio pfd ~read:true ~write:false
        with
        | () ->
            Hashtbl.replace conn.loop.fd_owners pfd (O_cgi conn);
            conn.cgi_fd_registered <- Some pfd
        | exception Evio.Backend_full _ -> close_conn t conn)
    | _ -> ()
  end

let handle_cgi_readable t conn fd pid =
  let buf = conn.loop.scratch in
  match Unix.read fd buf 0 (Bytes.length buf) with
  | n when n > 0 -> enqueue_string t conn (Bytes.sub_string buf 0 n)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | _ | exception Unix.Unix_error _ ->
      (* End of the script's output (or a broken pipe): the response is
         complete once the queue drains. *)
      unregister_cgi conn;
      conn.cgi_timer <- cancel_timer conn.loop conn.cgi_timer;
      t.cgi_inflight <- t.cgi_inflight - 1;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (* A script that closed its output but runs on, or left children
         behind, ends here with its response. *)
      Cgi.finish pid;
      response_queued t conn ~keep:false;
      if Sendq.is_empty conn.outq then close_conn t conn

(* A prefetch job finished: the helper already paged the file in, so
   the fill here never touches cold disk.  The entry is inserted like
   any miss-path fill, its path joins the known paths, and it is
   pinned while the hot tier has room — the rest of the pinning
   happens at the next mining cycle's re-rank. *)
let handle_prefetch_completion t w (c : Helper.completion) =
  match Hashtbl.find_opt w.w_prefetching c.Helper.key with
  | None -> ()
  | Some full -> (
      Hashtbl.remove w.w_prefetching c.Helper.key;
      match c.Helper.result with
      | Helper.Missing -> Obs.Counter.incr w.w_failed
      | Helper.Found _ -> (
          match fill t full with
          | Filled entry when cacheable t entry.File_cache.size ->
              remember t full;
              with_cache_lock t (fun () ->
                  if
                    (not (File_cache.pinned t.cache full))
                    && File_cache.pinned_bytes t.cache
                       + File_cache.entry_weight entry
                       <= w.w_pin_budget
                  then ignore (File_cache.pin t.cache full));
              unhold entry;
              if Hashtbl.length w.w_warmed >= warmed_limit then
                Hashtbl.reset w.w_warmed;
              Hashtbl.replace w.w_warmed full ();
              Obs.Counter.incr w.w_completed
          | Filled entry ->
              (* Too large to cache: nothing was inserted. *)
              unhold entry;
              Obs.Counter.incr w.w_failed
          | Large | Not_regular | Not_resident | Failed _ | Unloadable ->
              Obs.Counter.incr w.w_failed))

let handle_helper_completions t =
  match t.helper with
  | None -> ()
  | Some helper ->
      let completions = Helper.drain helper in
      List.iter
        (fun (c : Helper.completion) ->
          (* Negative keys are prefetch jobs: no connection waits. *)
          if c.Helper.key < 0 then
            match t.warm with
            | Some w -> handle_prefetch_completion t w c
            | None -> ()
          else
          match Hashtbl.find_opt t.main.by_helper_key c.Helper.key with
          | None -> ()  (* connection died while the helper worked *)
          | Some conn -> (
              Hashtbl.remove t.main.by_helper_key c.Helper.key;
              match conn.state with
              | Waiting_helper (req, full) -> (
                  (* The helper's own stamps join the waiting request's:
                     its queue wait, then the blocking disk work. *)
                  let st = conn.stamps in
                  st.enqueued <- c.Helper.enqueued;
                  st.started <- c.Helper.started;
                  st.finished <- c.Helper.finished;
                  let keep = Http.Request.keep_alive req in
                  let head_only = req.Http.Request.meth = Http.Request.Head in
                  match c.Helper.result with
                  | Helper.Missing ->
                      enqueue_error t conn Http.Status.Not_found ~keep ~head_only
                  | Helper.Found _ ->
                      serve_fill t conn req full ~keep
                        ~refused:Http.Status.Not_found);
                  sync_conn t conn
              | Reading | Streaming_cgi _ -> ()))
        completions

(* ------------------------------------------------------------------ *)
(* Accepting                                                           *)
(* ------------------------------------------------------------------ *)

let accept_backoff_initial = 0.05
let accept_backoff_max = 1.0

(* EMFILE/ENFILE on accept: park the listen fd's read interest instead
   of spinning on a connection we cannot take (level-triggered
   readiness would wake the loop at full speed otherwise), and let a
   timer re-arm it after a backoff that doubles while the descriptor
   table stays full. *)
let pause_accept t lp =
  Obs.Counter.incr t.accept_emfile;
  if not lp.accept_paused then begin
    lp.accept_paused <- true;
    sync_listen t lp;
    let delay = lp.accept_backoff in
    lp.accept_backoff <-
      Float.min accept_backoff_max (lp.accept_backoff *. 2.);
    ignore
      (Evio.Timer_wheel.schedule lp.wheel
         ~at:(Unix.gettimeofday () +. delay)
         T_resume_accept)
  end

(* The guard keys peers by address only (no port): every connection
   from one host shares a ledger. *)
let peer_of_addr = function
  | Unix.ADDR_INET (addr, _) -> Unix.string_of_inet_addr addr
  | Unix.ADDR_UNIX path -> "unix:" ^ path

(* Refuse a connection at the door: one best-effort write of a minimal
   error response (the socket buffer is empty, so a short write only
   truncates the refusal), then close.  No connection record is built
   and the guard ledger was never charged. *)
let refuse_fd t fd reason =
  let status =
    match reason with
    | Guard.Conn_limit | Guard.Rate_limit -> Http.Status.Too_many_requests
    | _ -> Http.Status.Service_unavailable
  in
  t.n_connections <- t.n_connections + 1;
  t.n_requests <- t.n_requests + 1;
  t.n_errors <- t.n_errors + 1;
  count_status t (Http.Status.code status);
  let retry =
    match t.guard with
    | Some g -> (Guard.config g).Guard.retry_after
    | None -> 1
  in
  let body = Http.Response.error_body status in
  let header =
    render_header t ~status
      ~extra:[ Http.Response.retry_after retry ]
      ~content_type:(Some "text/html")
      ~content_length:(Some (String.length body))
      ~keep:false
  in
  let payload = header ^ body in
  (try ignore (Unix.write_substring fd payload 0 (String.length payload))
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Adopt an fd accepted from [addr] into loop [lp]: create the
   connection record, register interest, arm the idle timer.  Returns
   [false] when the backend refused the fd (shed; the caller backs
   off). *)
let adopt_fd t lp fd addr =
  Unix.set_nonblock fd;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  let peer = peer_of_addr addr in
  match
    match t.guard with
    | Some g -> Guard.on_connect g ~peer
    | None -> Guard.Admit
  with
  | Guard.Reject reason ->
      (* Refused at the door, but the listen socket is fine: keep
         accepting (return [true] so the caller doesn't back off). *)
      refuse_fd t fd reason;
      true
  | Guard.Admit ->
  let key = lp.next_key in
  lp.next_key <- lp.next_key + 1;
  t.n_connections <- t.n_connections + 1;
  with_obs_lock t (fun () -> Obs.Gauge.incr t.active);
  let now = Unix.gettimeofday () in
  let stamps = Obs.Trace.stamps () in
  stamps.accepted <- now;
  let conn =
    {
      fd;
      key;
      peer;
      loop = lp;
      inbuf = "";
      scanned = 0;
      outq = Sendq.create ();
      state = Reading;
      close_after_flush = false;
      last_active = now;
      stamps;
      work = "";
      label_meth = "";
      label_target = "request";
      alive = true;
      reqs_served = 0;
      want_read = false;
      want_write = false;
      registered = false;
      flushed_turn = -1;
      cgi_fd_registered = None;
      idle_timer = None;
      cgi_timer = None;
      hdr_timer = None;
      xfer_timer = None;
      sent_bytes = 0;
      recv_bytes = 0;
      xfer_mark = 0;
    }
  in
  Hashtbl.replace lp.conns key conn;
  Hashtbl.replace lp.fd_owners fd (O_client conn);
  match sync_conn t conn with
  | () ->
      sync_listen t lp;
      if t.config.idle_timeout > 0. then
        conn.idle_timer <-
          Some
            (Evio.Timer_wheel.schedule lp.wheel
               ~at:(now +. t.config.idle_timeout)
               (T_idle conn));
      (match t.guard with
      | Some g when (Guard.config g).Guard.min_byte_rate > 0. ->
          conn.xfer_timer <-
            Some
              (Evio.Timer_wheel.schedule lp.wheel
                 ~at:(now +. (Guard.config g).Guard.transfer_interval)
                 (T_xfer conn))
      | _ -> ());
      true
  | exception Evio.Backend_full _ ->
      (* select cannot wait on fd numbers >= FD_SETSIZE: shed this
         connection; the caller backs off exactly as if the process
         were out of descriptors. *)
      close_conn t conn;
      false

let accept_all t lp =
  let rec loop () =
    if lp.single && Hashtbl.length lp.conns > 0 then ()
    else if match t.config.accept_fault with Some f -> f () | None -> false
    then pause_accept t lp
    else
      match Unix.accept ~cloexec:true t.listen_fd with
      | fd, addr ->
          lp.accept_backoff <- accept_backoff_initial;
          if adopt_fd t lp fd addr then loop () else pause_accept t lp
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ()
      | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
          pause_accept t lp
      | exception Unix.Unix_error _ -> ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* The event loop                                                      *)
(* ------------------------------------------------------------------ *)

(* Idle timers are lazy: activity only updates [last_active]; when the
   timer fires we either close a genuinely idle connection or push the
   timer out to [last_active + idle_timeout].  A busy keep-alive
   connection costs one wheel operation per idle_timeout, not one per
   request — and nothing scans every connection every iteration. *)
let handle_timer t lp ~now ev =
  match ev with
  | T_idle conn ->
      conn.idle_timer <- None;
      if conn.alive then
        if
          conn.state = Reading
          && Sendq.is_empty conn.outq
          && now -. conn.last_active > t.config.idle_timeout
        then close_conn t conn
        else
          let at =
            if conn.state = Reading && Sendq.is_empty conn.outq then
              conn.last_active +. t.config.idle_timeout
            else now +. t.config.idle_timeout
          in
          conn.idle_timer <-
            Some (Evio.Timer_wheel.schedule lp.wheel ~at (T_idle conn))
  | T_cgi conn -> (
      conn.cgi_timer <- None;
      if conn.alive then
        match conn.state with
        | Streaming_cgi _ -> close_conn t conn (* which kills the script *)
        | Reading | Waiting_helper _ -> ())
  | T_resume_accept ->
      if lp.accept_paused then begin
        lp.accept_paused <- false;
        sync_listen t lp;
        accept_all t lp
      end
  | T_rollup ->
      (* Periodic flight-recorder tick, so windows close on an idle
         server too; request paths also tick opportunistically. *)
      tick_recorder t ~now:(Unix.gettimeofday ());
      let interval =
        match t.recorder with
        | Some r -> Obs.Recorder.interval r
        | None -> t.config.recorder_interval
      in
      ignore
        (Evio.Timer_wheel.schedule lp.wheel ~at:(now +. interval) T_rollup)
  | T_hdr conn ->
      conn.hdr_timer <- None;
      (* The deadline only fires while a head is still incomplete —
         [try_parse] cancels it on Complete and Bad.  Discard the
         partial bytes and answer 408; a byte-at-a-time sender gets a
         response and a close instead of a held parse buffer. *)
      if conn.alive && conn.state = Reading && conn.inbuf <> "" then begin
        guard_shed t Guard.Slow_header;
        conn.inbuf <- "";
        conn.scanned <- 0;
        t.n_requests <- t.n_requests + 1;
        enqueue_error t conn Http.Status.Request_timeout ~keep:false
          ~head_only:false;
        sync_conn t conn
      end
  | T_xfer conn -> (
      conn.xfer_timer <- None;
      if conn.alive then
        match t.guard with
        | None -> ()
        | Some g ->
            let moved = conn.sent_bytes + conn.recv_bytes - conn.xfer_mark in
            let cfg = Guard.config g in
            if
              (not (Sendq.is_empty conn.outq))
              && Guard.transfer_stalled cfg ~bytes_moved:moved
                   ~interval:cfg.Guard.transfer_interval
            then begin
              (* Mid-response and moving below the floor: the response
                 header is already on the wire, so there is nothing to
                 send but the close itself. *)
              guard_shed t Guard.Slow_client;
              close_conn t conn
            end
            else begin
              conn.xfer_mark <- conn.sent_bytes + conn.recv_bytes;
              conn.xfer_timer <-
                Some
                  (Evio.Timer_wheel.schedule lp.wheel
                     ~at:(now +. cfg.Guard.transfer_interval)
                     (T_xfer conn))
            end)
  | T_guard_tick -> (
      match t.guard with
      | None -> ()
      | Some g ->
          Guard.sweep g;
          (match t.slo with
          | Some slo ->
              Guard.note_pressure g
                ~state_code:(Obs.Slo.state_code slo)
                ~burn:(Obs.Slo.burn slo)
          | None -> ());
          (* At Shed_idle and above, give back the cheapest standing
             work first: keep-alive connections that served their
             requests and have sat idle past the shed threshold. *)
          (if Guard.level g <> Guard.Normal then begin
             let cutoff = (Guard.config g).Guard.shed_idle_after in
             let victims =
               Hashtbl.fold
                 (fun _ conn acc ->
                   if
                     conn.alive && conn.state = Reading && conn.inbuf = ""
                     && Sendq.is_empty conn.outq
                     && conn.reqs_served > 0
                     && now -. conn.last_active >= cutoff
                   then conn :: acc
                   else acc)
                 lp.conns []
             in
             List.iter
               (fun conn ->
                 guard_shed t Guard.Idle_reap;
                 close_conn t conn)
               victims
           end);
          ignore
            (Evio.Timer_wheel.schedule lp.wheel
               ~at:(now +. t.config.recorder_interval)
               T_guard_tick))
  | T_warm -> (
      match (t.warm, t.helper) with
      | Some w, Some helper ->
          Obs.Counter.incr w.w_cycles;
          (* 1. Absorb the demand observed since the last cycle:
             per-path hit deltas plus fresh doorkeeper rejections. *)
          let stats, rejected =
            with_cache_lock t (fun () ->
                ( File_cache.fold_paths t.cache ~init:[] ~f:(fun acc p ks ->
                      (p, ks) :: acc),
                  File_cache.rejected_paths t.cache ))
          in
          Flash_warm.Warm.absorb w.w_absorber w.w_miner ~now ~stats ~rejected;
          (* 2. Re-rank within the pinned-tier byte budget. *)
          let candidates =
            Flash_warm.Miner.rank w.w_miner ~now
              ~top_k:w.w_conf.Flash_warm.Warm.top_k
              ~budget_bytes:w.w_pin_budget
          in
          Obs.Counter.add w.w_ranked (List.length candidates);
          let want = Hashtbl.create 64 in
          List.iter
            (fun (c : Flash_warm.Miner.candidate) ->
              Hashtbl.replace want c.Flash_warm.Miner.c_path ())
            candidates;
          (* 3. Re-pin the hot tier: release pins that fell out of the
             ranking, pin ranked paths already resident (never past the
             byte bound — entry weights include headers the miner does
             not see). *)
          let to_fetch =
            with_cache_lock t (fun () ->
                List.iter
                  (fun p ->
                    if not (Hashtbl.mem want p) then
                      ignore (File_cache.unpin t.cache p))
                  (File_cache.pinned_paths t.cache);
                List.filter
                  (fun (c : Flash_warm.Miner.candidate) ->
                    let p = c.Flash_warm.Miner.c_path in
                    if File_cache.resident t.cache p then begin
                      if
                        (not (File_cache.pinned t.cache p))
                        && File_cache.pinned_bytes t.cache
                           + c.Flash_warm.Miner.c_bytes
                           <= w.w_pin_budget
                      then ignore (File_cache.pin t.cache p);
                      false
                    end
                    else true)
                  candidates)
          in
          (* 4. Prefetch what is ranked but absent, on the helpers' low
             lane — never competing with client-triggered reads — and
             only while the shedder admits queue work at all. *)
          let admit =
            match t.guard with
            | Some g -> Guard.queue_admission g = Guard.Admit
            | None -> true
          in
          if admit then
            List.iter
              (fun (c : Flash_warm.Miner.candidate) ->
                let p = c.Flash_warm.Miner.c_path in
                let in_flight =
                  Hashtbl.fold
                    (fun _ q acc -> acc || String.equal p q)
                    w.w_prefetching false
                in
                if not in_flight then begin
                  let key = w.w_next_key in
                  w.w_next_key <- key - 1;
                  if Helper.dispatch_low helper ~key ~path:p then begin
                    Hashtbl.replace w.w_prefetching key p;
                    Obs.Counter.incr w.w_issued
                  end
                end)
              to_fetch;
          ignore
            (Evio.Timer_wheel.schedule lp.wheel
               ~at:(now +. t.config.warm_interval)
               T_warm)
      | _ -> ())
  | T_report -> (
      (* The report itself goes out at the end of this turn. *)
      match t.mp with
      | Mp_child c -> c.deferred <- None
      | Mp_none | Mp_parent _ -> ())

let dispatch_event t lp fd ~readable ~writable =
  match Hashtbl.find lp.fd_owners fd with
  | exception Not_found ->
      ()  (* closed while an earlier event in this batch ran *)
  | O_listen -> if readable then accept_all t lp
  | O_wake ->
      (* Only [stop] writes here, and its byte stays in the pipe:
         level-triggered readiness then rouses every loop watching it,
         not just the first to wake, and each leaves its turn to find
         [stopped] set. *)
      ()
  | O_helper -> handle_helper_completions t
  | O_report m ->
      (* An EOF'd pipe stays readable: stop watching it, or a dead
         child would spin this loop. *)
      ignore (drain_reports t);
      if m.eof then begin
        Evio.Backend.deregister lp.evio m.input;
        Hashtbl.remove lp.fd_owners m.input
      end
  | O_client conn ->
      if conn.alive then begin
        if readable && conn.state = Reading then handle_readable t conn;
        (* Only a connection already waiting for writability sees this;
           a response queued just now is written by [sync_conn]. *)
        if writable && conn.alive && not (Sendq.is_empty conn.outq)
        then handle_writable t conn;
        sync_conn t conn
      end
  | O_cgi conn -> (
      if conn.alive then
        match conn.state with
        | Streaming_cgi (fd, pid) ->
            handle_cgi_readable t conn fd pid;
            sync_conn t conn
        | Reading | Waiting_helper _ -> ())

(* The [n] fds the loop's last wait found ready, in the backend's
   order. *)
let dispatch_all t lp n =
  for i = 0 to n - 1 do
    dispatch_event t lp
      (Evio.Backend.ready_fd lp.evio i)
      ~readable:(Evio.Backend.readable lp.evio i)
      ~writable:(Evio.Backend.writable lp.evio i)
  done

(* An MP child's one write: its whole walk and the traces its ring took
   since the mark [reported] (a past [Obs.Trace.completed]), at most a
   ring's worth.  Blocking, since the parent always drains; silent once
   the parent is gone.  Returns the next report's mark. *)
let send_report t out ~reported =
  let traces, reported =
    match t.tracer with
    | None -> ([], reported)
    | Some tracer ->
        with_obs_lock t (fun () ->
            (Obs.Trace.since tracer reported, Obs.Trace.completed tracer))
  in
  let msg =
    Stats_frame.encode
      { Stats_frame.walk = Obs.Registry.collect t.registry; traces }
  in
  (try ignore (Unix.write_substring out msg 0 (String.length msg))
   with Unix.Unix_error _ -> ());
  reported

(* How far the MP parent's view may trail a child. *)
let report_interval = 0.05

(* The end of an MP child's busy loop turn, at [now]: report now, or,
   within [report_interval] of the last report, arm one report for when
   that is up.  A no-op outside MP children. *)
let report_turn t lp ~now =
  match t.mp with
  | Mp_child c ->
      if now -. c.reported_at >= report_interval then begin
        c.deferred <- cancel_timer lp c.deferred;
        c.reported_at <- now;
        c.reported <- send_report t c.out ~reported:c.reported
      end
      else if c.deferred = None then
        c.deferred <-
          Some
            (Evio.Timer_wheel.schedule lp.wheel
               ~at:(c.reported_at +. report_interval)
               T_report)
  | Mp_none | Mp_parent _ -> ()

(* Drive loop [lp] until [stop].  The main loop also owns the process's
   shared duties: helper completions, the MP parent's report pipes,
   flight-recorder windows and warming.  An MP child's loop leaves the
   wake pipe alone (stop reaches a child as a signal, and a byte it read
   would be lost to the parent) and reports at the end of each busy
   turn. *)
let run_loop t lp =
  let watch fd owner =
    Evio.Backend.register lp.evio fd ~read:true ~write:false;
    Hashtbl.replace lp.fd_owners fd owner
  in
  let schedule ~after ev =
    ignore
      (Evio.Timer_wheel.schedule lp.wheel ~at:(Unix.gettimeofday () +. after) ev)
  in
  if lp.accepts then begin
    Hashtbl.replace lp.fd_owners t.listen_fd O_listen;
    sync_listen t lp
  end;
  (match t.mp with
  | Mp_child _ -> ()
  | Mp_none | Mp_parent _ -> watch t.wake_read O_wake);
  if lp == t.main then begin
    (match t.helper with
    | Some h -> watch (Helper.notify_fd h) O_helper
    | None -> ());
    (match t.mp with
    | Mp_parent { members; _ } ->
        List.iter
          (fun m -> if not m.eof then watch m.input (O_report m))
          members
    | Mp_none | Mp_child _ -> ());
    (match t.recorder with
    | Some r -> schedule ~after:(Obs.Recorder.interval r) T_rollup
    | None -> ());
    (* First mining cycle: almost at once when a startup log was mined
       (its ranking is ready to prefetch before any request), else after
       a full interval of observed demand. *)
    match t.warm with
    | Some _ ->
        schedule
          ~after:
            (match t.config.warm_log with
            | Some _ -> 0.05
            | None -> t.config.warm_interval)
          T_warm
    | None -> ()
  end;
  (* Guard tick: ledger sweep, SLO-pressure sampling, and reaping this
     loop's idle connections.  Rides the recorder cadence so pressure is
     re-read as soon as a window can have closed. *)
  (match t.guard with
  | Some _ -> schedule ~after:t.config.recorder_interval T_guard_tick
  | None -> ());
  (* Two clock reads a turn: when the wait returns, and when the turn's
     work is done.  The first serves the turn's activity stamps
     ([last_active]), its timers and its wait time; the second its work
     time (a stall past the threshold), the MP report and the next
     wait's start.  Blocking in the wait is idleness, not a stall. *)
  let turn_end = ref (Unix.gettimeofday ()) in
  while not t.stopped do
    (* Sleep exactly until the next timer deadline (forever when no
       timers are pending) — readiness and the wake pipe interrupt the
       wait, so there is no fixed tick. *)
    let wait_start = !turn_end in
    let timeout_ms =
      match Evio.Timer_wheel.next_deadline lp.wheel with
      | None -> -1
      | Some d ->
          let s = d -. wait_start in
          if s <= 0. then 0 else int_of_float (Float.ceil (s *. 1000.))
    in
    let ready = Evio.Backend.wait lp.evio ~timeout_ms in
    let now = Unix.gettimeofday () in
    lp.now <- now;
    Obs.Loopstat.wake lp.stat ~waited:(now -. wait_start) ~ready;
    dispatch_all t lp ready;
    let fired = Evio.Timer_wheel.advance lp.wheel ~now in
    (match fired with
    | [] -> ()
    | evs ->
        Obs.Loopstat.timers_fired lp.stat (List.length evs);
        List.iter (handle_timer t lp ~now) evs);
    let fin = Unix.gettimeofday () in
    turn_end := fin;
    Obs.Loopstat.work lp.stat ~spent:(fin -. now);
    match fired with
    | [] when ready = 0 -> ()
    | _ -> report_turn t lp ~now:fin
  done;
  (* Drain: close everything. *)
  Hashtbl.iter (fun _ conn -> close_conn t conn) (Hashtbl.copy lp.conns);
  if lp != t.main then Evio.Backend.close lp.evio

let make_loop (config : config) ~accepts ~single ~track =
  {
    evio = Evio.Backend.create config.event_backend;
    wheel = Evio.Timer_wheel.create ~now:(Unix.gettimeofday ()) ();
    fd_owners = Hashtbl.create 64;
    conns = Hashtbl.create 64;
    by_helper_key = Hashtbl.create 64;
    stat = Obs.Loopstat.create ~threshold:config.stall_threshold;
    scratch = Bytes.create 65536;
    next_key = 0;
    now = Unix.gettimeofday ();
    accept_paused = false;
    accept_backoff = accept_backoff_initial;
    accepts;
    single;
    track;
  }

(* An MP child or MT worker: its own loop over the shared listen socket,
   one connection at a time, its spans on a track of its own. *)
let run_worker t ~track =
  let lp = make_loop t.config ~accepts:true ~single:true ~track in
  with_obs_lock t (fun () -> t.loops <- t.loops @ [ lp ]);
  run_loop t lp

(* Runs in a freshly forked MP child: report once, so the parent lists
   every series before any request, then serve until killed.  That
   report leaves [reported_at] alone: it must not defer the first busy
   turn's.  The child waits on a loop of its own, so it closes its copy
   of the parent's backend (an epoll fd would share the parent's
   kernel interest set). *)
let run_mp_child t out =
  Evio.Backend.close t.main.evio;
  let reported = send_report t out ~reported:0 in
  t.mp <- Mp_child { out; reported_at = neg_infinity; deferred = None; reported };
  run_worker t ~track:(Printf.sprintf "mp-child-%d" (Unix.getpid ()))

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Release one instance's resources.  Only called once its loop has
   exited (loop thread joined / domain joined). *)
let teardown t =
  (match t.helper with Some h -> Helper.shutdown h | None -> ());
  (* MT workers watch the wake pipe, so the stop byte already roused
     them. *)
  List.iter (fun th -> try Thread.join th with _ -> ()) t.worker_threads;
  (* Every loop has closed its connections; the cache's leases are the
     last, and ending them unmaps what it held. *)
  with_cache_lock t (fun () -> File_cache.clear t.cache);
  Evio.Backend.close t.main.evio;
  close_quietly t.listen_fd;
  (match t.log_channel with Some oc -> close_out_noerr oc | None -> ());
  (match t.slow_channel with Some oc -> close_out_noerr oc | None -> ());
  (match t.mp with
  | Mp_parent { members; _ } ->
      List.iter
        (fun m -> try Unix.close m.input with Unix.Unix_error _ -> ())
        members
  | Mp_none | Mp_child _ -> ());
  close_quietly t.wake_read;
  close_quietly t.wake_write

(* Run [build], which registers an undo action for each resource it
   acquires; if it raises, the actions run newest first and the
   exception is re-raised, so a failed start leaves nothing open. *)
let with_undo build =
  let undo = ref [] in
  match build (fun f -> undo := f :: !undo) with
  | v -> v
  | exception e ->
      List.iter (fun f -> try f () with _ -> ()) !undo;
      raise e

let open_log =
  Option.map (fun path -> open_out_gen [ Open_append; Open_creat ] 0o644 path)

(* Start one server instance.  [listen] says how it gets its listen
   socket: [`Bind] (the standalone path — bind config.port here),
   [`Fd (fd, port)] (a shard's pre-bound reuseport listener), [`None
   port] (the sharded coordinator, which accepts nothing: the
   placeholder socket is never bound or watched, it just gives [stop]
   something to close).  [shared_budget]/[shared_cache_lock] wire
   budget-sharing shards to one pool and one cache lock.  A start
   that raises leaves nothing open, except a [`Fd] listener, which
   stays the caller's to close. *)
let start_one ?(role = Standalone) ?(listen = `Bind) ?shared_budget
    ?shared_cache_lock config =
  with_undo @@ fun on_failure ->
  (* A peer closing mid-write must surface as EPIPE, not kill the
     process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd, bound_port, owns_listen =
    match listen with
    | `Fd (fd, port) -> (fd, port, true)
    | `None port ->
        let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        on_failure (fun () -> close_quietly fd);
        (fd, port, false)
    | `Bind ->
        let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        on_failure (fun () -> close_quietly fd);
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, config.port));
        Unix.listen fd 128;
        let p =
          match Unix.getsockname fd with
          | Unix.ADDR_INET (_, p) -> p
          | Unix.ADDR_UNIX _ -> config.port
        in
        (fd, p, true)
  in
  let wake_read, wake_write = Unix.pipe ~cloexec:true () in
  on_failure (fun () ->
      close_quietly wake_read;
      close_quietly wake_write);
  Unix.set_nonblock wake_read;
  let wants_helper =
    match (config.mode, role) with
    | Amped, _ -> true
    | Sharded _, Shard_member _ -> true (* each shard is a full AMPED *)
    | _ -> false
  in
  let helper =
    if wants_helper then
      Some
        (Helper.create ?slow_read:config.slow_read
           ?max_queued:config.guard.Guard.max_helper_queue
           ~helpers:(max 1 config.helpers) ())
    else None
  in
  Option.iter (fun h -> on_failure (fun () -> Helper.shutdown h)) helper;
  (* Every mode accepts through a readiness backend now, so the listen
     fd is nonblocking everywhere (a connection that vanishes between
     readiness and accept must yield EAGAIN, not a hang). *)
  Unix.set_nonblock listen_fd;
  (* MP/MT serve from worker loops; the main loop then runs without the
     listener. *)
  let main =
    make_loop config
      ~accepts:
        (owns_listen
        && match config.mode with Mp _ | Mt _ -> false | _ -> true)
      ~single:false
      ~track:
        (match role with
        | Shard_member id -> Printf.sprintf "shard-%d" id
        | Standalone | Shard_coordinator -> "main-loop")
  in
  on_failure (fun () -> Evio.Backend.close main.evio);
  let log_channel = open_log config.access_log in
  Option.iter (fun oc -> on_failure (fun () -> close_out_noerr oc)) log_channel;
  let slow_channel = open_log config.slow_request_log in
  Option.iter (fun oc -> on_failure (fun () -> close_out_noerr oc)) slow_channel;
  let budget =
    match (shared_budget, role) with
    | Some b, _ -> Some b
    | None, Shard_coordinator ->
        None (* the coordinator's cache serves no requests *)
    | None, _ ->
        Option.map
          (fun bytes -> Flash_cache.Budget.create ~bytes)
          config.cache_budget_bytes
  in
  let cache_mutex = Mutex.create () in
  let cache_lock =
    match shared_cache_lock with
    | Some m -> Some m (* budget-sharing shards serialise every store *)
    | None -> ( match config.mode with Mt _ -> Some cache_mutex | _ -> None)
  in
  (* Predictive warming rides the helper pool's low-priority lane, so
     only instances with helpers (AMPED, shard members) build it; the
     sharded coordinator and SPED/MP/MT run unwarmed. *)
  let warm =
    if config.warm && wants_helper then begin
      let wconf =
        {
          Flash_warm.Warm.interval = config.warm_interval;
          budget_frac = config.warm_budget;
          top_k = config.warm_top_k;
          half_life =
            Flash_warm.Warm.default_config.Flash_warm.Warm.half_life;
        }
      in
      let miner =
        Flash_warm.Miner.create ~half_life:wconf.Flash_warm.Warm.half_life ()
      in
      (* Startup mining: fold a previous run's access log so the first
         cycle prefetches before any request arrives. *)
      (match config.warm_log with
      | Some path -> (
          match open_in path with
          | exception Sys_error _ -> ()
          | ic ->
              let now = Unix.gettimeofday () in
              (try
                 while true do
                   ignore
                     (Flash_warm.Miner.observe_line miner ~now (input_line ic))
                 done
               with End_of_file -> ());
              close_in ic)
      | None -> ());
      Some
        {
          w_miner = miner;
          w_absorber = Flash_warm.Warm.create_absorber ();
          w_conf = wconf;
          w_pin_budget =
            Flash_warm.Warm.pin_budget wconf
              ~capacity:config.file_cache_bytes;
          w_next_key = -1;
          w_prefetching = Hashtbl.create 16;
          w_warmed = Hashtbl.create 256;
          w_cycles = Obs.Counter.create ();
          w_ranked = Obs.Counter.create ();
          w_issued = Obs.Counter.create ();
          w_completed = Obs.Counter.create ();
          w_failed = Obs.Counter.create ();
          w_hits_after = Obs.Counter.create ();
        }
    end
    else None
  in
  let t =
    {
      config;
      listen_fd;
      bound_port;
      cache =
        File_cache.create ~policy:config.cache_policy
          ~admission:config.cache_admission ?budget
          ~capacity_bytes:config.file_cache_bytes ();
      helper;
      wake_read;
      wake_write;
      main;
      loops = [ main ];
      stopped = false;
      loop_thread = None;
      children = [];
      n_requests = 0;
      n_connections = 0;
      n_errors = 0;
      log_channel;
      mp = Mp_none;
      stats_mutex = Mutex.create ();
      cache_mutex;
      obs_mutex = Mutex.create ();
      latency = Obs.Histogram.create ();
      writev_calls = Obs.Counter.create ();
      bytes_copied = Obs.Counter.create ();
      bytes_sent = Obs.Counter.create ();
      status_classes = Array.make 4 0;
      registry = Obs.Registry.create ();
      recorder = None;
      recorder_mutex = Mutex.create ();
      slo =
        Option.map
          (fun (quantile, target_ms) -> Obs.Slo.create ~quantile ~target_ms ())
          config.latency_slo;
      active = Obs.Gauge.create ();
      tracer =
        (if config.trace then
           Some
             (Obs.Trace.create ~clock:Unix.gettimeofday
                ~capacity:(max 1 config.trace_capacity) ())
         else None);
      slow_channel;
      started_at = Unix.gettimeofday ();
      worker_threads = [];
      accept_emfile = Obs.Counter.create ();
      role;
      shards = [||];
      coord = None;
      domains = [];
      cache_lock;
      guard =
        (if Guard.enabled config.guard then
           Some (Guard.create config.guard)
         else None);
      warm;
      known = Hashtbl.create 1024;
      cgi_inflight = 0;
    }
  in
  (* The coordinator serves nothing, so it registers nothing. *)
  (match role with
  | Shard_coordinator -> ()
  | Standalone | Shard_member _ -> register_metrics t);
  (* Recorder after [register_metrics] (it reads the registry) and
     before forks/threads, so every worker inherits it.  It reads what
     this instance reports.  The SLO burns on this instance's own
     latency series; an instance that serves nothing (the coordinator,
     the MP parent) has none. *)
  t.recorder <-
    Some
      (Obs.Recorder.create
         ~capacity:recorder_capacity ~interval:config.recorder_interval
         ~now:Unix.gettimeofday
         ~read:(fun () -> report t)
         ~on_rollup:(fun r ->
           match (t.slo, role, t.mp) with
           | Some slo, (Standalone | Shard_member _), (Mp_none | Mp_child _) ->
               Option.iter (Obs.Slo.observe slo)
                 (Obs.Registry.hist_value ~labels:(own_labels t)
                    r.Obs.Recorder.samples "flash_request_duration_seconds")
           | _ -> ())
         ());
  (match config.mode with
  | Mp n ->
      (* One pipe per child, whose write end only that child holds (the
         parent closes its copy before the next fork, and exec drops
         it), so the child's exit reads as EOF. *)
      let forked =
        List.init (max 1 n) (fun _ ->
            let input, out = Unix.pipe ~cloexec:true () in
            match Unix.fork () with
            | 0 ->
                (* Child: serves until killed; never returns. *)
                Unix.close input;
                (try run_mp_child t out with _ -> ());
                Stdlib.exit 0
            | pid ->
                Unix.close out;
                ( pid,
                  {
                    input;
                    decoder = Stats_frame.decoder ();
                    walk = [];
                    eof = false;
                  } ))
      in
      let members = List.map snd forked and buf = Bytes.create 65536 in
      (* Every child's first report before [start] returns, so the
         parent lists every series before any request. *)
      List.iter
        (fun m ->
          while m.walk = [] && read_member t buf m do () done;
          Unix.set_nonblock m.input)
        members;
      t.children <- List.map fst forked;
      t.mp <- Mp_parent { members; buf }
  | Mt n ->
      (* Kernel threads sharing the address space (and the cache, behind
         the mutex) — the paper's MT architecture. *)
      t.worker_threads <-
        List.init (max 1 n) (fun _ ->
            Thread.create
              (fun () ->
                try
                  run_worker t
                    ~track:
                      (Printf.sprintf "mt-worker-%d" (Thread.id (Thread.self ())))
                with _ -> ())
              ())
  | Amped | Sped | Sharded _ -> ());
  (match role with
  | Standalone -> Log.info (fun m -> m "listening on port %d" bound_port)
  | Shard_member _ | Shard_coordinator -> ());
  t

let start_sharded config n =
  let n = max 1 n in
  let config = { config with mode = Sharded n } in
  (* One pool across every shard's cache when --cache-budget is set;
     one shared cache lock rides along, because a foreign shard's
     rebalance may shed into this shard's store. *)
  let shared_budget =
    Option.map
      (fun bytes -> Flash_cache.Budget.create ~bytes)
      config.cache_budget_bytes
  in
  let shared_cache_lock =
    Option.map (fun _ -> Mutex.create ()) shared_budget
  in
  (* One listener per shard on one port, the kernel spreading accepts
     across them.  A bound-but-never-accepted reuseport socket would
     blackhole its share of connections, so the coordinator keeps
     none.  A kernel that refuses the option fails the start, with
     every listener bound so far closed. *)
  let bound = ref [] in
  let bind_listener port =
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    bound := fd :: !bound;
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Evio.set_reuseport fd;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen fd 128;
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> (fd, p)
    | Unix.ADDR_UNIX _ -> (fd, port)
  in
  let listeners =
    try
      let first = bind_listener config.port in
      first :: List.init (n - 1) (fun _ -> bind_listener (snd first))
    with e ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        !bound;
      raise e
  in
  let port = snd (List.hd listeners) in
  (* A shard that started owns its listener, and tearing it down closes
     it; the listeners of shards not yet started are closed here. *)
  with_undo @@ fun on_failure ->
  let unowned = ref (List.map fst listeners) in
  on_failure (fun () -> List.iter close_quietly !unowned);
  let shards =
    Array.of_list
      (List.mapi
         (fun i listener ->
           let sh =
             start_one ~role:(Shard_member i) ~listen:(`Fd listener)
               ?shared_budget ?shared_cache_lock config
           in
           unowned := List.tl !unowned;
           on_failure (fun () -> teardown sh);
           sh)
         listeners)
  in
  let coord = start_one ~role:Shard_coordinator ~listen:(`None port) config in
  coord.shards <- shards;
  coord.coord <- Some coord;
  Array.iter
    (fun sh ->
      sh.shards <- shards;
      sh.coord <- Some coord)
    shards;
  Log.info (fun m -> m "listening on port %d (%d domains)" port n);
  coord

let start config =
  match config.mode with
  | Sharded n -> start_sharded config n
  | Amped | Sped | Mp _ | Mt _ -> start_one config

let port t = t.bound_port
let mode t = t.config.mode

let run t =
  match t.role with
  | Shard_coordinator ->
      (* One domain per shard, each running a full AMPED loop on its
         own listener; the coordinator's loop serves nothing and parks
         on its wake pipe between recorder windows. *)
      t.domains <-
        Array.to_list
          (Array.map
             (fun sh -> Domain.spawn (fun () -> run_loop sh sh.main))
             t.shards);
      run_loop t t.main
  | Standalone | Shard_member _ -> run_loop t t.main

let start_background config =
  let t = start config in
  t.loop_thread <- Some (Thread.create run t);
  t

let shutdown_flag t =
  t.stopped <- true;
  try ignore (Unix.write t.wake_write (Bytes.of_string "x") 0 1)
  with Unix.Unix_error _ -> ()

let stop t =
  if not t.stopped then begin
    shutdown_flag t;
    (* Sharded coordinator: flag every shard before joining anything so
       all the loops unwind in parallel. *)
    (match t.role with
    | Shard_coordinator -> Array.iter shutdown_flag t.shards
    | Standalone | Shard_member _ -> ());
    List.iter
      (fun pid ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      t.children;
    (match t.loop_thread with Some th -> Thread.join th | None -> ());
    (* Shard domains were spawned by the coordinator's [run] (on the
       loop thread just joined, under [start_background]), so the list
       is final by now; join them before touching their fds. *)
    List.iter (fun d -> try Domain.join d with _ -> ()) t.domains;
    t.domains <- [];
    (match t.role with
    | Shard_coordinator -> Array.iter teardown t.shards
    | Standalone | Shard_member _ -> ());
    teardown t
  end

(* Both read the walk every view reads: sharded, the summed-at-snapshot
   aggregate. *)
let stats t =
  let samples = collect_for t in
  let iv ?labels name = Obs.Registry.int_value ?labels samples name in
  let fl = [ ("cache", "file") ] in
  {
    requests = iv "flash_http_requests_total";
    connections = iv "flash_connections_total";
    errors = iv "flash_http_errors_total";
    cache_hits = iv ~labels:fl "flash_cache_hits_total";
    cache_misses = iv ~labels:fl "flash_cache_misses_total";
    helper_jobs = iv "flash_helper_jobs_total";
    cache_evictions = iv ~labels:fl "flash_cache_evictions_total";
    helper_queue_depth = iv "flash_helper_queue_depth";
    active_connections = iv "flash_active_connections";
    loop_stalls = iv "flash_loop_stalls_total";
    loop_max_stall =
      Obs.Registry.float_value samples "flash_loop_max_stall_seconds";
    writev_calls = iv "flash_writev_calls_total";
    bytes_copied = iv "flash_bytes_copied_total";
    mapped_bytes = iv "flash_cache_mapped_bytes";
    event_backend = Evio.name t.config.event_backend;
    loop_wakeups = iv "flash_loop_wakeups_total";
    timer_fires = iv "flash_loop_timer_fires_total";
    accept_emfile = iv "flash_accept_emfile_total";
  }

let latency t =
  match
    Obs.Registry.hist_value (collect_for t) "flash_request_duration_seconds"
  with
  | Some h -> h
  | None -> Obs.Histogram.create ()

let helper_job_latency t =
  Obs.Registry.hist_value (collect_for t) "flash_helper_job_duration_seconds"

let tracing_enabled t = t.tracer <> None
let trace_snapshot = traces

(* SIGUSR1 / shutdown dump: flush the partial window, render the whole
   ring.  The flush's walk drains the report pipes, so an MP parent's
   dump reflects everything the children have reported. *)
let recorder_dump t =
  match with_recorder t Obs.Recorder.dump_json with
  | Some s -> s
  | None -> {|{"capacity": 0, "interval": 0, "rollups": []}|}
