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
    the same logic is testable without sockets; {!writev} does both
    over a socket.

    The queue owns its slice records, a ring reused as slices drain,
    and gathers into an array it reuses: queueing and sending a
    response allocate nothing but what {!push_string} copies. *)

type t

val create : unit -> t
val is_empty : t -> bool

(** Queue a slice's window (the queue copies it into a slice of its
    own); zero-length slices are dropped. *)
val push_slice : t -> Iovec.slice -> unit

(** Queue [buf[off, off + len)], as {!push_body} would a slice of it.
    @raise Invalid_argument when the window is not inside [buf]. *)
val push_buffer :
  t -> Iovec.bigstring -> off:int -> len:int -> File_cache.lease option -> unit

(** Queue a slice of a cached body.  With [Some lease] the queued
    slice takes a lease on the body, ended when the slice is popped or
    cleared; with [None] (a buffer the GC owns) this is {!push_slice}.
    Zero-length slices are dropped and take no lease. *)
val push_body : t -> Iovec.slice -> File_cache.lease option -> unit

(** Queue a cached response: [header] (one of [entry]'s four) and,
    with [~body:true], the whole body.  The body slice holds the
    entry's lease until it is popped, after the header; a header with
    no body slice behind it (a 304, a HEAD, an empty body) holds the
    lease itself.  So a 200 with a body takes one lease, as its body
    alone would, and every header leaves the queue before its memory
    can be freed. *)
val push_entry :
  t -> File_cache.entry -> header:Iovec.bigstring -> body:bool -> unit

(** Copy a heap string into a fresh off-heap buffer and queue it.
    Returns the number of bytes copied (0 for [""]) so callers can
    charge their copy counters. *)
val push_string : t -> string -> int

(** The leading slices (up to [Iovec.max_iovecs]).  The array aliases
    the queued slices: advancing them advances the queue's view. *)
val gather : t -> Iovec.slice array

(** One [writev] of the leading slices (up to [Iovec.max_iovecs]),
    gathered into the queue's reused array, then {!advance} by what the
    kernel took.  Returns the bytes written; raises as {!Iovec.writev}
    does. *)
val writev : t -> Unix.file_descr -> int

(** Whether the last {!writev} wrote every byte it gathered ([false]:
    the socket's buffer filled). *)
val wrote_all : t -> bool

(** Consume [n] bytes from the leading slices, popping the ones fully
    sent (a popped body slice ends its lease).  [n] must not exceed the
    gathered length. *)
val advance : t -> int -> unit

(** Discard every slice, ending the leases of queued body slices
    (connection teardown). *)
val clear : t -> unit
