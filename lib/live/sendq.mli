(** Per-connection send queue of iovec slices.

    A response is queued as slices: a pre-rendered header and a body
    that is a window of a cached entry's copy or mapping, or of an
    uncached large file's mapping.  A slice of a leased body holds a
    lease on it ({!File_cache.lease}) from {!push_body} until
    {!advance} pops it or {!clear} discards it, so an evicted or
    uncached file's copy or mapping is released only after its last
    queued byte is sent.  Partial writes are survived by advancing
    slice offsets in place — bytes already accepted by the kernel are
    never re-submitted and strings are never re-sliced.  The queue is
    transport-agnostic: {!gather} exposes the leading slices for a
    [writev] and {!advance} consumes whatever the write accepted, so
    the same logic is testable without sockets. *)

type t

val create : unit -> t
val is_empty : t -> bool

(** Queue a slice; zero-length slices are dropped. *)
val push_slice : t -> Iovec.slice -> unit

(** Queue a slice of a cached body.  With [Some lease] the queued
    slice takes a lease on the body, ended when the slice is popped or
    cleared; with [None] (a buffer the GC owns) this is {!push_slice}.
    Zero-length slices are dropped and take no lease. *)
val push_body : t -> Iovec.slice -> File_cache.lease option -> unit

(** Copy a heap string into a fresh off-heap buffer and queue it.
    Returns the number of bytes copied (0 for [""]) so callers can
    charge their copy counters. *)
val push_string : t -> string -> int

(** The leading slices (up to [Iovec.max_iovecs]).  The array aliases
    the queued slices: advancing them advances the queue's view. *)
val gather : t -> Iovec.slice array

(** Consume [n] bytes from the leading slices, popping the ones fully
    sent (a popped body slice ends its lease).  [n] must not exceed the
    gathered length. *)
val advance : t -> int -> unit

(** Discard every slice, ending the leases of queued body slices
    (connection teardown). *)
val clear : t -> unit
