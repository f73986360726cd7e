(** The message on an MP child's report pipe.

    Forked MP children hold copy-on-write statistics, so each child
    reports to the parent over a pipe of its own (the paper's §4.2
    "information gathering" cost of the MP architecture).  A report is
    the child's whole registry walk and the traces it finished since
    its previous report, as one [Marshal] blob: both ends are the same
    forked binary, and no byte from a client reaches the pipe.  Each
    pipe has one writer, so reports never interleave and have no size
    bound. *)

type t = {
  walk : Obs.Registry.sample list;  (** the child's walk, as it collects it *)
  traces : Obs.Trace.trace_data list;  (** finished traces, oldest first *)
}

val encode : t -> string

type decoder

val decoder : unit -> decoder

val feed : decoder -> Bytes.t -> int -> t list
(** [feed d buf len] appends the first [len] bytes of [buf] to what [d]
    has buffered and returns every message they complete, in order.  A
    partial message waits for the next call. *)
