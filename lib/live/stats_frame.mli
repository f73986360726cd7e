(** The MP stats pipe's one record.

    Forked MP children hold copy-on-write statistics, so each child
    reports to the parent over a shared pipe (the paper's §4.2
    "information gathering" cost of the MP architecture).  Every report
    is one record: the child's counter deltas since its previous
    record, its new latency observations, its absolute gauges (pid,
    active connections, mapped bytes) and any finished traces.

    On the wire a record is one or more length-prefixed frames, each at
    most {!max_frame} bytes, so a single [write] of a frame is atomic
    and frames from several children never interleave.  Counters ride
    the first frame; latencies and traces that do not fit spill into
    further frames that repeat the gauges and carry no counters, so
    decoding frame by frame gives the same sums, last gauges and
    observation lists as the record that was encoded. *)

val max_frame : int
(** 4096 bytes: [PIPE_BUF] on Linux. *)

val max_trace : int
(** The largest trace record that can ride a frame; larger ones are
    dropped by {!encode}. *)

type t = {
  pid : int;
  active : int;  (** open connections in the sender, now *)
  mapped : int;  (** file bytes the sender has mmapped, now *)
  counters : int array;  (** deltas since the sender's previous record *)
  latencies : float list;  (** request latencies, seconds, oldest first *)
  traces : string list;  (** {!Obs.Trace.to_binary} records, oldest first *)
}

val encode : t -> string list
(** The frames of one record, in order.
    @raise Invalid_argument with more than 255 counters. *)

type decoder

val decoder : unit -> decoder

val feed : decoder -> Bytes.t -> int -> t list
(** [feed d buf len] appends the first [len] bytes of [buf] to what [d]
    has buffered and returns every frame they complete, in order, each
    as a record.  A partial frame waits for the next call; a frame whose
    payload does not parse is skipped. *)
