(** Unified byte budget shared by several caches.

    The paper's Flash sizes each application cache independently
    (pathname entries, header bytes, mapped-file bytes); a tuning
    mistake in one starves the others.  A [Budget.t] pools one byte
    allowance over every registered cache: members charge bytes as
    entries arrive and release them as entries leave, and when the pool
    overflows the budget sheds entries from the member currently
    holding the most bytes — the caches compete for memory the way
    files compete inside a single cache.

    Stores register themselves when created with [~budget] (see
    {!Store.create}); manual registration is only needed for exotic
    members.

    A budget is safe to share across OCaml domains (the sharded
    server's shared [--cache-budget]): accounting is atomic, so
    concurrent charge/release conserve the total and a release never
    over-frees past zero, and rebalance is serialised so concurrent
    overflows don't double-shed.  The member callbacks themselves run
    on whichever domain triggered the rebalance — callers sharing a
    budget across domains must make their [usage]/[shed] paths safe to
    invoke from a foreign domain (the live server does this by sharing
    one cache lock across budget-sharing shards). *)

type t

(** @raise Invalid_argument if [bytes <= 0]. *)
val create : bytes:int -> t

val capacity : t -> int

(** Bytes currently charged across all members. *)
val used : t -> int

(** [register t ~usage ~shed] — [usage] reports the member's
    resident bytes; [shed] evicts one victim (through the member's
    normal eviction path, hooks included) and returns [false] when it
    has nothing left to give. *)
val register : t -> usage:(unit -> int) -> shed:(unit -> bool) -> unit

(** Charge [bytes] to the pool, then shed members (largest first) until
    the pool fits again or nothing more can be shed. *)
val charge : t -> int -> unit

val release : t -> int -> unit

(** Shed until within capacity (normally called by {!charge}). *)
val rebalance : t -> unit
