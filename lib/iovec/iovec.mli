(** Gather writes over off-heap buffers — the live server's zero-copy
    send primitive (paper §5.5).

    A {!slice} points into a {!bigstring} (a char Bigarray: stable,
    off-heap storage, which is also what {!map} returns), so a
    response can be described as [header slice; body slice] and handed
    to the kernel in a single [writev(2)] without concatenating — and,
    for mmap-backed bodies, without ever copying the payload through
    userspace.

    Two send paths are exposed and selectable at run time:
    - {!writev}: the C stub over [writev(2)] (available when
      {!have_writev});
    - {!writev_copy}: a portable pure-OCaml fallback that copies the
      slices into a scratch buffer and issues one scalar [Unix.write] —
      the measured baseline the gather path is compared against. *)

type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(** A window into a buffer.  [off]/[len] are advanced in place as bytes
    drain, so a partial write resumes without re-slicing. *)
type slice = { buf : bigstring; mutable off : int; mutable len : int }

(** [true] when the [writev(2)] C stub is usable on this platform. *)
val have_writev : bool

(** Most slices a single {!writev} call will submit; longer gathers are
    sent over several calls. *)
val max_iovecs : int

val create : int -> bigstring

(** Copying conversions (each counts as a userspace copy to callers that
    track them). *)
val of_string : string -> bigstring

val of_bytes : Bytes.t -> len:int -> bigstring

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
    (EAGAIN/EWOULDBLOCK on a drained non-blocking socket).
    @raise Failure when {!have_writev} is false.
    @raise Invalid_argument, before any byte is written, when a
    submitted slice does not lie inside its buffer ([off < 0],
    [len < 0] or [off + len] past the buffer's length, as for a slice
    over an {!unmap}ped buffer). *)
val writev : Unix.file_descr -> slice array -> int

(** Portable fallback: copy the slices into [scratch] (up to its
    capacity) and issue one scalar [Unix.write].  Returns
    [(bytes_written, bytes_copied)]; a caller sees a partial write as
    [bytes_written < bytes_copied].
    @raise Invalid_argument on a slice outside its buffer, as {!writev}. *)
val writev_copy : scratch:Bytes.t -> Unix.file_descr -> slice array -> int * int

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
