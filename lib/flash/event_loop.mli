(** The event-driven architectures: SPED, AMPED (Flash) and the Zeus
    model.

    One process multiplexes every connection through [select].  The
    difference between the variants is confined to how potentially
    blocking disk work is performed (§3.3/§3.4):
    - SPED/Zeus run pathname translation and page faults inline — the
      whole server stalls when they miss in the buffer cache;
    - AMPED tests residency with [mincore] first and ships misses to
      {!Helper_pool} helpers, parking only that connection until the
      completion arrives on the notification pipe.

    The Zeus model additionally handles ready events for small responses
    first ([small_request_priority]) and sends unaligned headers. *)

(** Completion messages helpers post back to the event loop. *)
type helper_result

(** [run rt ~pool ()] is the body of one event-loop process; it never
    returns (the simulation's time bound ends it).  [pool] must be
    [Some _] exactly for the AMPED architecture. *)
val run :
  Runtime.t -> pool:helper_result Helper_pool.t option -> unit -> unit
