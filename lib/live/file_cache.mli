(** File cache for the live server — the paper's mmap'd chunk cache
    (§4) on the live side.

    A body is one of two kinds, chosen by size.  A file of at most
    {!copy_limit} bytes is cached as a read copy: its bytes copied once,
    at fill, into a [malloc]'d buffer ({!Iovec.read}), which costs less
    than mapping it, faulting its pages in on the first send and
    unmapping it at eviction.  A larger file is cached as an
    {!Iovec.map} mapping (a copy where the filesystem refuses to map,
    within the bound its caller sets).  Either way a cache hit serves
    the body through a gather write with zero userspace copies, and
    only the kernel reads a mapping.  Entries carry pre-rendered 200 {e and} 304
    headers (keep-alive and close variants, aligned per server config)
    — the header cache of §4.3 for free, extended to conditional
    replies so a cached 304 is a single gather write of one pre-built
    iovec.  Bounded by total resident bytes (body + headers);
    replacement and admission are pluggable via {!Flash_cache.Policy}
    (LRU, always-admit by default), and the cache can share a
    {!Flash_cache.Budget} with others.  A mapped-bytes gauge tracks how
    much file data is currently mapped through the cache.

    {b Variants.}  Alternate representations (today: gzip) live in the
    same store under a derived key, so one policy, one capacity and one
    shared budget govern every representation.  A variant entry carries
    the {e origin's} validators ([mtime], [size]) and is dropped
    whenever its origin is evicted or invalidated — a variant can never
    outlive the plain file it encodes.

    {b Leases.}  Each body counts its leases, as Flash refcounts its
    chunks (§4.4).  The cache holds one while the entry is resident
    (taken before the store's [add], dropped on eviction, removal or
    rejection); each queued body slice holds one ({!Sendq.push_body});
    and the code that builds or serves an entry holds one until its
    response is queued (a hit takes it under the cache lock).  The
    release that ends the last lease frees the copy or unmaps the
    mapping, exactly once, so an evicted file leaves memory at its last
    send rather than at a later major GC.  An entry built but never
    inserted (a file too large to cache) is sent the same way and
    leaves at its last send. *)

(** A body's lease count: a read copy's or a mapping's. *)
type lease

(** Take a lease.  Only a holder of another lease (or the creator of a
    fresh body) may take one.
    @raise Invalid_argument when the body is already released. *)
val acquire : lease -> unit

(** End a lease; the last one frees the copy or unmaps the mapping. *)
val release : lease -> unit

(** Whether the leased body is a mapping (else a read copy). *)
val is_mapping : lease -> bool

type entry = {
  body : Iovec.bigstring;  (** the leased body when [mapped] is [Some] *)
  mapped : lease option;
      (** the body's lease; [None] for a buffer the GC owns (an empty
          body), with no lease to keep *)
  mtime : float;  (** origin file's mtime (also for variants) *)
  size : int;  (** origin file's byte size (also for variants) *)
  etag : string;  (** rendered strong validator, quotes included *)
  encoding : string option;  (** [Some "gzip"] for a variant entry *)
  header_keep : Iovec.bigstring;
      (** rendered 200 header, [Connection: keep-alive], aligned *)
  header_close : Iovec.bigstring;  (** same, [Connection: close] *)
  header_304_keep : Iovec.bigstring;
      (** rendered 304 reply (headers only), keep-alive *)
  header_304_close : Iovec.bigstring;  (** same, [Connection: close] *)
}

(** Length of the cached body in bytes — the origin size for plain
    entries, the compressed length for variants. *)
val body_length : entry -> int

(** Total resident weight of an entry (body plus its four pre-rendered
    headers) — what it is charged against capacity and budget. *)
val entry_weight : entry -> int

type t

val create :
  ?policy:Flash_cache.Policy.kind ->
  ?admission:Flash_cache.Policy.admission ->
  ?budget:Flash_cache.Budget.t ->
  capacity_bytes:int ->
  unit ->
  t

(** [find t path ~mtime ~size] — hit only if both the cached mtime and
    size match: a same-second rewrite that changes the length must not
    serve the stale mapping.  A stale entry is dropped through the evict
    hook, so the mapped-bytes gauge cannot drift. *)
val find : t -> string -> mtime:float -> size:int -> entry option

(** Lookup without a freshness check — how Flash's caches trust entries
    between invalidations; staleness is corrected when a helper's fresh
    stat disagrees. *)
val find_trusted : t -> string -> entry option

(** [find_variant t path ~encoding ~mtime ~size] — like {!find} but for
    an alternate representation; [mtime]/[size] are the {e origin's}
    validators, so rewriting the origin invalidates its variants. *)
val find_variant :
  t -> string -> encoding:string -> mtime:float -> size:int -> entry option

(** Insert if the admission policy accepts it (rejection is silent: the
    response is served without caching). *)
val insert : t -> string -> entry -> unit

(** Insert an alternate representation under [path]'s variant key and
    couple its lifetime to the origin: when the origin entry is evicted,
    invalidated or removed, the variant is dropped too (through the
    evict hook, so gauges stay exact). *)
val insert_variant : t -> string -> encoding:string -> entry -> unit

val remove : t -> string -> unit

(** Remove every entry through the evict hook, ending the cache's
    leases (server teardown). *)
val clear : t -> unit

(** {1 Pinned hot tier}

    The cache warmer pins its ranked hot set so the victim walk cannot
    evict it between mining cycles.  Pinning is by origin path; gzip
    variants stay under normal replacement (they are re-derivable from
    the pinned origin).  Pinned entries still count against capacity
    and any shared budget. *)

(** Pin a resident entry; [false] if [path] is not resident. *)
val pin : t -> string -> bool

(** Release a pin; [false] if [path] was not pinned.  The entry rejoins
    normal replacement order. *)
val unpin : t -> string -> bool

val unpin_all : t -> unit
val pinned : t -> string -> bool
val pinned_bytes : t -> int
val pinned_count : t -> int
val pinned_paths : t -> string list

(** Residency probe that does not touch the hit/miss counters (unlike
    {!find_trusted}) — the warmer's "already cached?" check. *)
val resident : t -> string -> bool

(** {1 Warming inputs}

    Per-path demand the miner folds into its ranking.  Variant keys are
    skipped: a variant cannot be prefetched directly and its demand
    already shows on its origin. *)

(** Fold over resident origin paths with their hit/recency/size
    stats. *)
val fold_paths :
  t -> init:'a -> f:('a -> string -> Flash_cache.Store.key_stat -> 'a) -> 'a

(** Paths the admission doorkeeper has seen and turned away — demand
    that never became resident. *)
val rejected_paths : t -> string list

(** Largest body cached as a read copy rather than a mapping: 64 KB.
    In [bench/miss_replica.c] (one miss in C, Linux 6.18, ext4, a
    2-vCPU Xeon VM) a 16 KB fill cost 10.6–12.5 µs copied against
    19.9–22.0 µs mapped; the copy stayed cheaper up to 128 KB and was
    dearer at 256 KB.  64 KB keeps below that crossover and equals the
    simulator's {!Flash.Mmap_cache} chunk. *)
val copy_limit : int

(** The first [size] bytes of [fd] as a fresh body (position-
    independent; the descriptor may be closed afterwards): a read copy
    when [size <= copy_limit], else a mapping.  Where mapping fails the
    body is a read copy when [size <= max_copy] (default: any size), so
    a caller that bounds [max_copy] never copies a larger file whole.
    A copy is shorter than [size] when the file shrank since the stat
    that gave [size].  The second component is [Some] for a nonempty
    body; it holds no lease, and its body is freed or unmapped when the
    last lease taken on it ends.
    @raise Unix.Unix_error when the read fails, or when mapping fails
    and [size > max_copy]. *)
val map_body :
  ?max_copy:int -> Unix.file_descr -> size:int -> Iovec.bigstring * lease option

(** Like {!map_body}, but only when no byte has to come from disk;
    [None] otherwise.  A copy is read with {!Iovec.read_cached}, which
    also answers [None] for a file shorter than [size].  A mapping is
    made only when [mincore] says every page is in core and
    [trust_mincore] says that answer counts ({!trusts_mincore}); its
    probe is unmapped when the answer is no. *)
val map_resident :
  trust_mincore:bool ->
  Unix.file_descr ->
  size:int ->
  (Iovec.bigstring * lease option) option

(** Whether a [mincore] answer about a file owned by [owner] can be
    believed by a process whose effective uid is [euid].  Linux 5.0
    and later report every page as resident to a caller that neither
    owns the file nor may write it, so only the owner's (or root's)
    answer counts. *)
val trusts_mincore : owner:int -> euid:int -> bool

val bytes : t -> int
val entries : t -> int

(** File bytes currently mapped through cache entries (read copies do
    not count).  Drops on eviction/removal — the regression signal that
    eviction releases mappings. *)
val mapped_bytes : t -> int

val hits : t -> int
val misses : t -> int

(** Entries pushed out by capacity pressure (explicit {!remove}s are not
    counted). *)
val evictions : t -> int

(** Policy name, capacity and counters for /server-status. *)
val stats : t -> Flash_cache.Store.stats
