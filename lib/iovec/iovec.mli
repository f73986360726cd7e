(** Gather writes over off-heap buffers — the live server's zero-copy
    send primitive (paper §5.5).

    A {!slice} points into a {!bigstring} (a char Bigarray: stable,
    off-heap storage, which is also what {!map} and {!read} return), so
    a response can be described as [header slice; body slice] and
    handed to the kernel in a single [writev(2)] without concatenating
    — and without copying the payload through userspace on any send.
    Every response byte leaves through {!writev}. *)

type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(** A window into a buffer.  [off]/[len] are advanced in place as bytes
    drain, so a partial write resumes without re-slicing; a queue that
    owns its slices reuses them for other windows. *)
type slice = { mutable buf : bigstring; mutable off : int; mutable len : int }

(** Most slices a single {!writev} call will submit; longer gathers are
    sent over several calls. *)
val max_iovecs : int

val create : int -> bigstring

(** A copy of the string in a fresh buffer, made with one [memcpy]
    (a userspace copy to callers that track them). *)
val of_string : string -> bigstring

(** [sub_string buf ~off ~len] copies a window out (tests, diagnostics). *)
val sub_string : bigstring -> off:int -> len:int -> string

(** Fresh slice over [buf]; default the whole buffer.
    @raise Invalid_argument on out-of-range windows. *)
val slice : ?off:int -> ?len:int -> bigstring -> slice

(** Remaining bytes across an array of slices. *)
val total_length : slice array -> int

(** Consume [n] bytes from the front of [slices], advancing offsets in
    place (the partial-write resumption step). *)
val advance : slice array -> int -> unit

(** Gather-write the slices to [fd] in one [writev(2)]; returns bytes
    written.  Raises [Unix.Unix_error] exactly like [Unix.write]
    (EAGAIN/EWOULDBLOCK on a drained non-blocking socket; EFAULT when
    a slice over a mapping reaches past the end of a file that shrank).
    @raise Failure where [writev(2)] is not available.
    @raise Invalid_argument, before any byte is written, when a
    submitted slice does not lie inside its buffer ([off < 0],
    [len < 0] or [off + len] past the buffer's length, as for a slice
    over an {!unmap}ped buffer). *)
val writev : Unix.file_descr -> slice array -> int

(** [writev_prefix fd slices n] is {!writev} of the first [n] slices, so
    a caller can gather into an array it reuses. *)
val writev_prefix : Unix.file_descr -> slice array -> int -> int

(** {1 Mappings}

    A file mapping whose lifetime its owner manages: the GC never
    unmaps it (unlike [Unix.map_file]'s finaliser), so an owner that
    counts the slices still pointing into it can unmap it the moment
    the last one is gone. *)

(** [map fd len] maps the first [len] bytes of [fd] read-only and
    shared.  The descriptor may be closed afterwards.
    @raise Unix.Unix_error when [mmap(2)] fails.
    @raise Invalid_argument when [len <= 0].
    @raise Failure where mappings are not available. *)
val map : Unix.file_descr -> int -> bigstring

(** Unmap a buffer returned by {!map}.  The buffer is left empty (its
    length reads 0), so a slice still over it fails {!writev}'s bounds
    check rather than reading unmapped memory.
    @raise Invalid_argument when the buffer is not a live mapping from
    {!map}: a second [unmap], or a buffer from {!create}. *)
val unmap : bigstring -> unit

(** Whether every page under the buffer is in core ([mincore(2)]); an
    empty buffer is.  Where [mincore] is missing the answer is
    [false].  Linux 5.0 and later report every page of a file the
    caller neither owns nor may write as resident, so callers trust a
    [true] only for files they own (or when running as root). *)
val resident : bigstring -> bool

(** {1 Read copies and other owned buffers}

    A file's bytes copied once into a fresh [malloc]'d buffer whose
    lifetime its owner manages, as for a mapping: the GC neither frees
    it nor counts it towards its pacing, and {!free} ends it. *)

(** [read ?head fd len] reads the first [len] bytes of [fd] (from
    offset 0, whatever the descriptor's position) into a fresh buffer,
    blocking as a [read] does.  The bytes start [head] bytes in
    (default 0): the buffer's first [head] bytes are left for the
    caller to fill, so what it sends before the body shares the one
    allocation.  The buffer's length is [head] plus the count read:
    shorter than [head + len] when the file ends first.
    @raise Unix.Unix_error on a read error.
    @raise Invalid_argument when [len <= 0] or [head < 0].
    @raise Failure where read copies are not available. *)
val read : ?head:int -> Unix.file_descr -> int -> bigstring

(** Like {!read}, but only when no byte has to come from disk: [None]
    when a page of the first [len] bytes is not in the page cache, or
    the file is shorter than [len].  Where the kernel has non-blocking
    buffered reads ([preadv2] with [RWF_NOWAIT], Linux 4.14 and later,
    selected at build time) it answers for any caller.  Elsewhere — or
    on a filesystem that refuses the flag — a probe mapping asks
    [mincore] first, and that answer counts only with [trust_mincore]
    (see {!resident}); without it the result is [None].
    @raise Unix.Unix_error on a read error.
    @raise Invalid_argument when [len <= 0] or [head < 0]. *)
val read_cached :
  trust_mincore:bool -> ?head:int -> Unix.file_descr -> int -> bigstring option

(** A fresh uninitialised buffer of [len] bytes outside the GC, ended
    by {!free}.
    @raise Invalid_argument when [len <= 0]. *)
val alloc : int -> bigstring

(** [blit_string s soff buf off len] copies [len] bytes of [s] from
    [soff] into [buf] at [off], with one [memcpy].
    @raise Invalid_argument when either window is out of range. *)
val blit_string : string -> int -> bigstring -> int -> int -> unit

(** Free a buffer returned by {!alloc}, {!read} or {!read_cached},
    leaving it empty as {!unmap} does.
    @raise Invalid_argument on a buffer already freed, or one from
    {!create} or {!of_string}.  A live mapping from {!map} must go to
    {!unmap} instead. *)
val free : bigstring -> unit

(** Empty a view ([Bigarray.Array1.sub]) into a buffer from {!alloc},
    {!read}, {!read_cached} or {!map} whose owner is about to {!free}
    or {!unmap} it: its length reads 0 from then on, so a slice still
    over it fails {!writev}'s bounds check.  The view owns nothing, so
    nothing is freed; an empty buffer, of any kind, is left as it is.
    @raise Invalid_argument on a nonempty buffer the GC manages. *)
val empty : bigstring -> unit
