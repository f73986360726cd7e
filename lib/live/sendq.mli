(** Per-connection send queue of iovec slices.

    A response is queued as slices (pre-rendered header, cached body)
    plus, for files too large to cache, a descriptor streamed in
    chunks.  A slice of a cached body holds a lease on it
    ({!File_cache.lease}) from {!push_body} until {!advance} pops it
    or {!clear} discards it, so an evicted file's copy or mapping is
    released only after its last queued byte is sent.  Partial writes are survived by
    advancing slice offsets in place — bytes already accepted by the
    kernel are never re-submitted and strings are never re-sliced.  The
    queue is transport-agnostic: {!gather} exposes the leading slices
    for a [writev] (or the copying fallback) and {!advance} consumes
    whatever the write accepted, so the same logic is testable without
    sockets. *)

type item =
  | Slice of Iovec.slice
  | Body of Iovec.slice * File_cache.lease
      (** a slice of a cached body, holding a lease on it *)
  | File of { src : Unix.file_descr; mutable remaining : int }
      (** streamed large file: read a chunk, write it, repeat *)

type t

val create : unit -> t
val is_empty : t -> bool

(** Head of the queue, if any (not removed). *)
val head : t -> item option

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

val push_file : t -> Unix.file_descr -> len:int -> unit

(** Leading [Slice] and [Body] items (up to [Iovec.max_iovecs]),
    stopping at the first [File].  The array aliases the queued slices:
    advancing them advances the queue's view. *)
val gather : t -> Iovec.slice array

(** Consume [n] bytes from the leading slices, popping the ones fully
    sent (a popped body slice ends its lease).  [n] must not exceed the
    gathered length. *)
val advance : t -> int -> unit

(** Remove the head item (used when a [File] finishes). *)
val pop : t -> unit

(** Close any queued file descriptors (connection teardown). *)
val close_files : t -> unit

(** Discard every item, ending the leases of queued body slices
    (connection teardown; {!close_files} first). *)
val clear : t -> unit
