(** Cache replacement and admission policies.

    The paper hardwires weighted LRU into every application cache
    (pathname, response-header, mapped-file, and the live file cache).
    This module makes replacement a pluggable policy — the order a
    {!Store} consults to pick eviction victims — plus admission gates
    deciding whether a missed object is worth caching at all (in the
    spirit of pcache's minimum-size and frequency-sampled admission for
    production file servers).

    A policy keeps no table of its own: each resident entry carries a
    {!node}, and the policy links, scores and ranks those nodes in
    place, so a key is hashed once, by the store.

    Implemented replacement policies:
    - [Lru]: classic recency order — the seed behaviour, refactored
      behind the interface.
    - [Slru]: segmented LRU; a probationary segment absorbs one-touch
      objects, hits promote into a protected segment bounded at 4/5 of
      the capacity, so scans cannot flush the hot set.
    - [Lfu]: EMA-decayed frequency ranking (pcache's periodic ranking
      rendered per-access): each access contributes weight that decays
      geometrically, so long-dead popularity ages out.
    - [Gdsf]: Greedy-Dual-Size-Frequency — priority
      [L + frequency / size] with the aging term [L] inflated to each
      eviction victim's priority; keeps small popular objects and evicts
      big one-touch objects first.

    [Lfu] and [Gdsf] rank nodes in a min-heap ordered by
    [(score, stamp)] that holds each node once and moves it in place
    when it is rescored. *)

type kind = Lru | Slru | Lfu | Gdsf

val all : kind list

val name : kind -> string

(** ["lru|slru|lfu|gdsf"] — for error messages and [--help]. *)
val valid_names : string

(** Case-insensitive; [Error] carries a message listing valid names. *)
val of_string : string -> (kind, string) result

(** One resident entry's replacement state.  The store makes one per
    entry with {!node}, keeps it for the entry's life and owns [key]
    and [weight] (a re-weigh writes [weight], then calls [access]); the
    policy owns the rest, and each policy uses only its own fields. *)
type 'k node = {
  key : 'k;
  mutable weight : int;
  mutable newer : 'k node option;  (** LRU, SLRU: toward the MRU end *)
  mutable older : 'k node option;  (** LRU, SLRU: toward the LRU end *)
  mutable protected_ : bool;  (** SLRU: in the protected segment *)
  mutable charged : int;
      (** SLRU: the weight the protected segment counts for the node *)
  mutable score : float;
      (** LFU: decayed frequency; GDSF: priority.  Lower dies first. *)
  mutable stamp : int;  (** LFU, GDSF: when last scored; breaks ties *)
  mutable slot : int;  (** LFU, GDSF: the node's index in the heap *)
  mutable freq : int;  (** GDSF: accesses since the node joined *)
}

(** A node for a fresh entry, in no policy's order yet. *)
val node : 'k -> weight:int -> 'k node

(** One policy instance: the mutable replacement state for a single
    store.  The nodes it orders are exactly the store's unpinned
    resident entries — the store calls [insert]/[remove] as entries
    come and go (a pin removes, an unpin inserts), [access] on hits
    and re-weighs, and [victim] to pick who dies under pressure. *)
type 'k impl = {
  insert : 'k node -> unit;  (** node joins the order *)
  access : 'k node -> unit;  (** hit on, or re-weigh of, an ordered node *)
  remove : 'k node -> unit;  (** node leaving (eviction, invalidation, pin) *)
  victim : unit -> 'k node option;
      (** next eviction victim (still ordered; the store removes it) *)
  resize : int -> unit;  (** capacity changed (SLRU segment bound) *)
}

(** Fresh policy state.  [capacity] is the store's weight capacity
    (SLRU sizes its protected segment from it; others ignore it). *)
val make : kind -> capacity:int -> unit -> 'k impl

(** {1 Admission} *)

type admission =
  | Admit_always
  | Admit_min_size of int
      (** only objects of at least this weight are cacheable — pcache's
          gate for an SSD cache that should hold big files.  Weights
          below the threshold are rejected. *)
  | Admit_freq of float
      (** probabilistic frequency gate: an object missed before (seen by
          the gate's doorkeeper) is admitted outright; a first-timer is
          admitted with this probability (deterministic pseudo-random
          stream), so one-touch objects mostly stay out. *)

val admission_name : admission -> string

(** ["always|size:BYTES|freq[:PROB]"]. *)
val admission_valid_names : string

val admission_of_string : string -> (admission, string) result

type 'k gate = {
  admit : 'k -> weight:int -> bool;
  note_miss : 'k -> unit;
      (** remember a rejected key so its next admission attempt passes
          (the doorkeeper) *)
  gate_clear : unit -> unit;
  gate_keys : unit -> 'k list;
      (** the doorkeeper's remembered rejected keys (unordered; empty
          for gates without one) — demand the cache has seen and turned
          away, which is exactly the signal a predictive warmer wants *)
}

val make_gate : admission -> unit -> 'k gate
