(** Pluggable event-readiness backends for the live server's loops.

    The paper's portable baseline is [select(2)] — bounded by
    FD_SETSIZE and O(watched fds) per wait.  This module hides the
    readiness mechanism behind one interface so the same loop can run
    on:
    - {b select}: the paper's primitive, kept for its comparison;
    - {b poll(2)}: no FD_SETSIZE cap, still O(n) per wait;
    - {b epoll(7)}: Linux, level-triggered; interest lives in the
      kernel so a wait costs one syscall regardless of connection
      count, and only {e changed} fds cost an [epoll_ctl] (interest-set
      diffing).

    The live server waits on {!default}, the best of these the running
    system has: a keep-alive hit is mostly kernel time, and select and
    poll set up and tear down a wait on every watched descriptor each
    turn, where epoll's interest set stays in the kernel.

    select and poll (C stubs, any Unix) share one code path: the
    interest arrays are cached, rebuilt only after a registration
    changes, and each wait is one stub call over them that fills a
    result array.  A wait reports its ready fds through arrays the
    backend owns and takes its timeout as an int, so it allocates
    nothing.

    All backends deliver level-triggered readiness with the same
    semantics: an fd is reported only for what it is watched for, and
    error/hang-up conditions surface as readable (and, for
    write-watched fds, writable) so the caller's normal IO path
    observes [EOF]/[EPIPE].  Waits release the OCaml runtime lock. *)

module Timer_wheel : module type of Timer_wheel
(** The loop's hashed timer wheel, re-exported so users of the wrapped
    library reach it as [Evio.Timer_wheel]. *)

type kind = Select | Poll | Epoll

val name : kind -> string
(** ["select"], ["poll"] or ["epoll"]. *)

val available : kind -> bool
(** Whether this backend works on the running system ([Select] and
    [Poll] on any Unix; [Epoll] on Linux). *)

val best_available : unit -> kind
(** epoll > poll > select — what [--event-backend auto] picks. *)

val default : kind
(** The live server's backend unless told otherwise: {!best_available}
    (epoll on Linux, poll on other Unixes). *)

val all_available : unit -> kind list
(** Every backend usable here (for parity test matrices). *)

val of_string : string -> (kind, string) result
(** Parse [select|poll|epoll|auto]; [auto] resolves via
    {!best_available}.  The error message lists the valid names. *)

val valid_names : string

val fd_setsize : unit -> int
(** select's fd-number ceiling (FD_SETSIZE); [0] where select carries
    no numeric cap (Windows).  poll/epoll are never capped this way. *)

val set_reuseport : Unix.file_descr -> unit
(** Set [SO_REUSEPORT] on a not-yet-bound socket so several listeners
    can share one port and the kernel balances accepts across them —
    the sharded server's one accept path.  Raises [Failure], with a
    message naming the option, where the build or the running kernel
    lacks it. *)

exception Backend_full of string
(** Raised by {!Backend.register} when the backend cannot wait on the
    fd at all — concretely, select with an fd number at or above
    FD_SETSIZE.  Callers treat it like fd exhaustion: shed that
    connection, keep the loop alive. *)

module Backend : sig
  type t

  val create : kind -> t
  (** Raises [Invalid_argument] if the kind is not {!available}. *)

  val kind : t -> kind

  val register : t -> Unix.file_descr -> read:bool -> write:bool -> unit
  (** Add (or update) an fd's interest.  Alias of {!modify}. *)

  val modify : t -> Unix.file_descr -> read:bool -> write:bool -> unit
  (** Upsert interest.  A call that changes nothing costs no syscall
      and no rebuild on any backend. *)

  val deregister : t -> Unix.file_descr -> unit
  (** Forget an fd.  Call {e before} closing it; stale fds are pruned
      defensively (select: after a wait fails with EBADF; poll: on
      POLLNVAL) but at the cost of a wasted wakeup. *)

  val wait : t -> timeout_ms:int -> int
  (** Block until readiness or [timeout_ms] milliseconds ([-1] =
      forever; [0] = non-blocking poll).  Returns how many fds are
      ready; {!ready_fd}, {!readable} and {!writable} at [i] in
      [\[0, n)] describe the [i]th until the next wait.  [EINTR]
      returns [0].  Allocates nothing. *)

  val ready_fd : t -> int -> Unix.file_descr
  val readable : t -> int -> bool
  val writable : t -> int -> bool

  val fd_count : t -> int
  (** Currently registered fds. *)

  val close : t -> unit
  (** Release kernel resources (the epoll fd).  Idempotent. *)
end
