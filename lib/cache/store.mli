(** The policy-driven cache store behind every Flash cache.

    A weighted key/value map whose replacement order comes from a
    pluggable {!Policy.kind} and whose insertions pass a
    {!Policy.admission} gate.  Counts hits, misses, capacity evictions
    and admission decisions per store, so every cache can report itself
    on [/server-status] and in the offline evaluator without private
    bookkeeping.

    Capacity semantics match the seed's weighted LRU: total weight is
    bounded by [capacity], and a single entry heavier than the whole
    capacity is admitted alone (the store never evicts its last entry
    under its own capacity pressure).  A shared {!Budget.t} adds a
    second, pooled bound across several stores; budget pressure may
    evict a store's last entry. *)

type ('k, 'v) t

type stats = {
  name : string;
  policy : string;
  admission : string;
  capacity : int;
  entries : int;
  resident : int;  (** total weight of resident entries *)
  hits : int;
  misses : int;
  evictions : int;  (** capacity/budget pressure only *)
  admitted : int;
  rejected : int;
  pinned_entries : int;  (** entries currently pinned (hot tier) *)
  pinned_bytes : int;  (** total weight of pinned entries *)
}

(** Per-key access history, the predictive warmer's raw material.
    [ks_last] is a logical stamp from the store's own op counter
    (monotone per store: larger means touched more recently), so
    rankings derived from it are deterministic. *)
type key_stat = {
  ks_hits : int;
  ks_last : int;
  ks_weight : int;
  ks_pinned : bool;
}

(** [create ~capacity ()] — [on_evict] runs for pressure evictions and
    for [remove ~evict:true] (resource cleanup, e.g. unmapping), never
    for plain [remove].  With [~budget] the store also registers in the
    shared pool and charges its weights there.
    @raise Invalid_argument if [capacity <= 0]. *)
val create :
  ?policy:Policy.kind ->
  ?admission:Policy.admission ->
  ?on_evict:('k -> 'v -> unit) ->
  ?budget:Budget.t ->
  ?name:string ->
  capacity:int ->
  unit ->
  ('k, 'v) t

(** Lookup; a hit promotes the entry in the policy's order. *)
val find : ('k, 'v) t -> 'k -> 'v option

(** [find_validated t k ~validate] — a resident entry failing
    [validate] is stale: it is removed through the evict hook and the
    lookup counts as a miss.  How the header and file caches drop
    entries whose backing file changed. *)
val find_validated : ('k, 'v) t -> 'k -> validate:('v -> bool) -> 'v option

(** Lookup without promoting or counting. *)
val peek : ('k, 'v) t -> 'k -> 'v option

val mem : ('k, 'v) t -> 'k -> bool

(** Insert through the admission gate; [false] means rejected (the
    store is unchanged).  Replacing a resident key bypasses admission
    and re-weighs; the policy counts it as a hit and ranks the entry at
    its new weight.  With [~evict:true] a resident key's value leaves
    through the [on_evict] hook instead, as {!remove}[ ~evict:true]
    would, and the new one goes through admission as a first insert.
    A key not resident is looked up once either way.
    @raise Invalid_argument on negative weight. *)
val add : ?evict:bool -> ('k, 'v) t -> 'k -> 'v -> weight:int -> bool

(** Remove without counting as an eviction.  [~evict:true] additionally
    runs the [on_evict] hook — use it wherever the hook releases a
    resource (mapping gauges), so explicit invalidation cannot leak. *)
val remove : ?evict:bool -> ('k, 'v) t -> 'k -> 'v option

(** Evict one victim through the normal eviction path even if it is the
    last entry; [false] when empty.  The budget's shed hook. *)
val shed : ('k, 'v) t -> bool

val length : ('k, 'v) t -> int

(** Total resident weight. *)
val weight : ('k, 'v) t -> int

val capacity : ('k, 'v) t -> int

(** @raise Invalid_argument if [cap <= 0]. *)
val set_capacity : ('k, 'v) t -> int -> unit

val iter : ('k, 'v) t -> f:('k -> 'v -> unit) -> unit

(** {1 Pinned hot tier}

    A pin is a flag on the entry.  Pinned entries stay resident: they
    are removed from the policy's replacement order (the victim walk
    can never name them) but remain in the table, counted in {!weight}
    and charged to the shared budget.  A store whose unpinned remainder
    is empty refuses to {!shed}, and the budget's rebalance falls
    through to its next member.  {!remove} (and any eviction path) of a
    pinned entry takes its weight out of the pinned bytes, so that
    figure can never leak. *)

(** Pin a resident entry; [false] when the key is not resident.
    Idempotent. *)
val pin : ('k, 'v) t -> 'k -> bool

(** Return a pinned entry to the policy's replacement order (which may
    immediately evict under capacity pressure); [false] when the key
    was not pinned. *)
val unpin : ('k, 'v) t -> 'k -> bool

val pinned : ('k, 'v) t -> 'k -> bool
val pinned_bytes : ('k, 'v) t -> int
val pinned_count : ('k, 'v) t -> int

(** The pinned keys, in table order; walks every entry. *)
val pinned_keys : ('k, 'v) t -> 'k list

(** {1 Warming inputs} *)

(** Fold over every resident key's access history. *)
val fold_keys :
  ('k, 'v) t -> init:'a -> f:('a -> 'k -> key_stat -> 'a) -> 'a

(** Keys the admission doorkeeper remembers rejecting (unordered;
    empty without a frequency gate) — demand the cache turned away. *)
val rejected_keys : ('k, 'v) t -> 'k list

val clear : ('k, 'v) t -> unit
val stats : ('k, 'v) t -> stats
val hits : ('k, 'v) t -> int
val misses : ('k, 'v) t -> int
val evictions : ('k, 'v) t -> int
