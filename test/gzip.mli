(** Dependency-free gzip (RFC 1952) over deflate (RFC 1951).

    {!compress} frames its input in *stored* (uncompressed) deflate
    blocks — protocol-valid gzip any client inflates, produced in one
    memcpy-plus-CRC32 pass.  The conformance suite writes its [.gz]
    sibling fixtures with it.

    {!decompress} is a complete inflate (stored, fixed- and
    dynamic-Huffman blocks) with header and CRC/length validation,
    used as the conformance suite's reference decoder. *)

val crc32 : ?crc:int32 -> string -> int32

(** Raw DEFLATE stream of stored blocks (no gzip framing). *)
val deflate_stored : string -> string

(** A gzip member wrapping [deflate_stored] with a reproducible header
    (mtime 0) and CRC-32/ISIZE trailer. *)
val compress : string -> string

(** Inflate a raw DEFLATE stream. *)
val inflate : string -> (string, string) result

(** Parse a gzip member, inflate, and verify CRC-32 and ISIZE. *)
val decompress : string -> (string, string) result
