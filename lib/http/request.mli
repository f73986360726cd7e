(** HTTP request parsing.

    The parser is incremental-friendly: [parse buf] either consumes one
    complete request head (everything through the blank line) or reports
    that more bytes are needed.  It never raises on arbitrary input —
    malformed requests yield [`Bad].  Request bodies are not consumed
    (the servers here serve static content and CGI GET).

    One pass over the head: the scan for its end, then the request line
    and each header line read where they lie, copying out only the
    target, the names not in a table of common ones, and the values.
    {!parse_sub} parses straight from a read buffer and resumes a scan
    where the last one stopped. *)

type meth = Get | Head | Post | Other of string

val meth_to_string : meth -> string

type t = {
  meth : meth;
  raw_target : string;  (** exactly as sent *)
  path : string;  (** percent-decoded, before normalization *)
  query : string option;
  version : int * int;  (** e.g. [(1, 0)] *)
  headers : (string * string option) list;
      (** names lowercased; each value kept as the [Some] that {!header}
          returns *)
}

(** The first header of that name (any case).  Allocates nothing. *)
val header : t -> string -> string option

(** HTTP/1.1 defaults to persistent; HTTP/1.0 requires
    ["Connection: keep-alive"]; ["Connection: close"] always wins. *)
val keep_alive : t -> bool

type result =
  | Complete of t * int  (** parsed request and bytes consumed *)
  | Incomplete  (** no blank line yet *)
  | Bad of string  (** malformed; connection should be rejected *)

val parse : string -> result

(** [parse_sub s ~pos ~len ~from] parses the head at the start of
    [s[pos, pos + len)], as [parse (String.sub s pos len)] would, and
    [Complete]'s count is relative to [pos].  The scan for the blank
    line starts [from] bytes in: after an [Incomplete] over [len] bytes,
    a later call over the same bytes and more may pass [len - 2] (or
    0), so a head that arrives in pieces is scanned once.  Bytes of [s]
    past [pos + len] are never read, and the result shares no storage
    with [s]. *)
val parse_sub : string -> pos:int -> len:int -> from:int -> result

(** [decode_target "/a%20b?x=1"] is [("/a b", Some "x=1")].  Invalid
    percent escapes are left verbatim. *)
val decode_target : string -> string * string option

(** Resolve ["."] and [".."] segments; [None] when the path escapes the
    root or is not absolute.  An already-normal path is returned as
    is. *)
val normalize_path : string -> string option
