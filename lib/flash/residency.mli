(** Feedback-based memory-residency predictor (§5.7).

    On operating systems with neither [mincore] nor [mlock], the paper
    proposes that Flash run its own clock-like algorithm to *predict*
    which cached file pages are resident, adapting the assumed cache
    size with feedback from page-fault counters.  This module implements
    that fallback: an application-level LRU over recently transmitted
    chunks, bounded by an assumed resident-set size that grows on
    confirmed predictions and shrinks multiplicatively whenever an
    inline access actually blocked (a page fault the predictor failed to
    anticipate). *)

type t

(** [create ~initial_bytes ~min_bytes ~max_bytes] *)
val create : initial_bytes:int -> min_bytes:int -> max_bytes:int -> t

(** Would the predictor transmit this range inline (believing it
    resident)? *)
val predict_resident : t -> Simos.Fs.file -> off:int -> len:int -> bool

(** Record that the range was (re)loaded or transmitted — it is now
    believed resident. *)
val note_access : t -> Simos.Fs.file -> off:int -> len:int -> unit

(** An inline access the predictor approved actually blocked on disk:
    shrink the assumed resident set and forget the range. *)
val note_fault : t -> Simos.Fs.file -> off:int -> len:int -> unit

(** An inline access the predictor approved completed without blocking:
    grow the assumed resident set slowly. *)
val note_correct : t -> unit

val assumed_bytes : t -> int
val faults : t -> int
