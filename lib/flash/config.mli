(** Server configuration: the concurrency architecture plus every knob
    the paper's evaluation varies.

    The presets reproduce the paper's §6 setups: Flash-MP and Apache run
    32 processes, Flash-MT 32 threads, the shared caches are large while
    each MP process gets a small private slice, and the Apache/Zeus
    models differ from the Flash presets only in the documented ways
    (Apache: MP without the aggressive optimizations; Zeus: SPED without
    byte-aligned headers, with small-request priority, optionally two
    processes). *)

(** Dynamic-content model (§5.6): per-request application CPU, blocking
    think time (e.g. a database wait), and output size. *)
type cgi = { cgi_cpu : float; cgi_think : float; cgi_bytes : int }

type architecture =
  | Sped  (** single-process event-driven *)
  | Amped  (** event-driven + disk helper processes (Flash) *)
  | Mp  (** one process per concurrent request *)
  | Mt  (** one kernel thread per concurrent request *)

type t = {
  label : string;  (** how benches report this server *)
  arch : architecture;
  processes : int;  (** MP worker processes / MT threads / SPED event loops *)
  max_helpers : int;  (** AMPED helper pool bound *)
  pathname_cache_entries : int;  (** 0 disables the cache *)
  header_cache : bool;
  mmap_cache_bytes : int;  (** 0 disables chunk reuse *)
  mmap_chunk_bytes : int;
  align_headers : bool;  (** §5.5 byte-position alignment *)
  small_request_priority : bool;  (** Zeus's observed scheduling bias *)
  extra_request_cpu : float;  (** per-request handicap (Apache model) *)
  double_buffered_io : bool;
      (** read file data into a user buffer before writing (no mmap):
          one extra copy per body byte (Apache model) *)
  residency_heuristic : bool;
      (** replace the mincore test with the §5.7 feedback predictor
          (AMPED only; for systems without mincore/mlock) *)
  cgi : cgi option;
      (** serve /cgi-bin/ paths through persistent application
          processes; [None] rejects them *)
  io_chunk : int;  (** max bytes offered to the socket per send step *)
  index_file : string;
  trace : bool;
      (** record request-lifecycle traces ({!Obs.Trace}) on the virtual
          clock — off by default; benchmarks turn it on to export
          timelines *)
  cache_policy : Flash_cache.Policy.kind;
      (** replacement policy shared by the pathname / header / mmap
          caches (LRU in the paper's configuration) *)
  cache_budget_bytes : int option;
      (** when set, the three caches share one byte budget: overflow in
          any cache sheds from whichever holds the most *)
}

(** Flash: the AMPED server with every optimization on. *)
val flash : t

(** The same code base with the event/helper dispatch replaced (§6). *)
val flash_sped : t

val flash_mp : t
val flash_mt : t

(** AMPED with the §5.7 feedback-based residency predictor instead of
    [mincore]; mispredicted inline accesses block the event loop. *)
val flash_heuristic : t

(** MP reference point without aggressive optimizations. *)
val apache : t

(** SPED reference point; [processes] = 2 mirrors the vendor-advised
    two-process configuration used in the real-workload tests. *)
val zeus : processes:int -> t

(** All six, in the order the paper's figures list them. *)
val all_servers : t list

(** [with_caches t ~pathname ~mmap ~header] switches individual caches
    on/off for the Fig 11 breakdown. *)
val with_caches : t -> pathname:bool -> mmap:bool -> header:bool -> t
