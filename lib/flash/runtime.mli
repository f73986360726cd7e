(** Shared per-server state: the cache set, configuration, kernel handle
    and counters.  The four architecture drivers ({!Event_loop} for
    SPED/AMPED, {!Worker} for MP/MT) all process requests through the
    helpers here, keeping the code base common — the property the paper
    relies on when attributing performance differences to architecture
    alone. *)

type caches = {
  pathname : Pathname_cache.t;
  headers : Header_cache.t;
  mmap : Mmap_cache.t;
}

type t = {
  kernel : Simos.Kernel.t;
  config : Config.t;
  shared_caches : caches;
  cache_mutex : Sim.Sync.Mutex.t option;  (** Some _ only for MT *)
  mutable completed : int;  (** responses fully transmitted *)
  mutable errors : int;  (** non-200 responses *)
  mutable helper_dispatches : int;  (** AMPED: jobs sent to helpers *)
  residency : Residency.t option;
      (** the §5.7 predictor, present iff [residency_heuristic] on AMPED *)
  cgi : Cgi_pool.t option;  (** persistent CGI apps, per [config.cgi] *)
  deferred : (unit -> unit) Simos.Pipe.t;
      (** completions posted by other processes for the event loop to run;
          select on its pollable and execute drained thunks *)
  tracer : Obs.Trace.t option;
      (** request-lifecycle traces on the virtual clock, present iff
          [config.trace] — the same {!Obs.Trace} API the live server
          uses, so benchmarks can export simulated timelines *)
}

val create : Simos.Kernel.t -> Config.t -> t

(** A fresh private cache set (per MP worker process). *)
val make_caches : t -> Config.t -> caches

(** Outcome of the translate + header steps, ready for transmission. *)
type response = {
  status : Http.Status.t;
  file : Simos.Fs.file option;  (** [None] for error responses *)
  header : string;
  body_len : int;  (** file size or error body size *)
  head_only : bool;
  keep : bool;
}

(** Map the request target to a filesystem path (index files, dot-segment
    normalization). *)
val resolve_path : t -> Http.Request.t -> string option

(** Charge the per-request base CPU plus any configured handicap, and the
    parse cost for [bytes] of request head. *)
val charge_request : t -> bytes:int -> unit

(** Pathname-cache lookup, charging the probe.  Does not consult the
    filesystem. *)
val translate_cached : t -> caches -> string -> Simos.Fs.file option

(** Build (or fetch from cache) the 200 response for [file], plus body
    bookkeeping.  [keep] propagates the client's keep-alive request. *)
val ok_response :
  t -> caches -> Http.Request.t -> Simos.Fs.file -> keep:bool -> response

val error_response : t -> Http.Request.t -> Http.Status.t -> keep:bool -> response

(** Response for a dynamic request whose application produced [bytes]
    of output; never cached. *)
val cgi_response : t -> Http.Request.t -> bytes:int -> keep:bool -> response

(** Does the path name a dynamic document (under /cgi-bin/)? *)
val is_cgi_path : string -> bool

(** Charge the extra user-buffer copy for [bytes] of body data when the
    configuration lacks mmap IO (the Apache model); no-op otherwise. *)
val charge_body_copy : t -> int -> unit

(** Bytes of the first [writev] that pay the misalignment penalty under
    this configuration (0 when headers are aligned). *)
val misaligned_budget : t -> response -> int

(** Account a finished response. *)
val finished : t -> response -> unit
