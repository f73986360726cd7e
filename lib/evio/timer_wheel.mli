(** A hashed timer wheel (Varghese & Lauck) for event-loop deadlines.

    The loop owns one wheel and drives it with explicit timestamps —
    there is no clock inside, so tests inject any time base they like.
    Timers hash into [slots] buckets of [tick] seconds; scheduling,
    cancelling and per-advance bookkeeping are O(1) amortised in the
    number of armed timers, replacing the O(n) idle sweep the live
    server used to run every iteration.

    Guarantees:
    - {b no early fires}: [advance ~now] only fires timers whose
      deadline is [<= now], regardless of slot quantisation;
    - {b fire order}: one [advance] reports fires sorted by deadline
      (ties by scheduling order);
    - {b cancel} is exact — a cancelled timer never fires ([cancel] is
      O(1); the entry is purged once its deadline passes, or sooner
      when cancelled entries outnumber live ones in its slot);
    - {b per-turn cost}: [next_deadline] is O(1) (the earliest deadline
      is kept, and recomputed only after the timer holding it is fired
      or purged), and an [advance] that fires and purges nothing
      allocates nothing.

    Timers whose deadline lies beyond one wheel rotation
    ([slots * tick]) stay in their bucket and are re-examined once per
    rotation — the classic hashed-wheel trade-off. *)

type 'a t
(** A wheel of timers carrying ['a] payloads. *)

type 'a timer
(** Handle to a scheduled timer (for [cancel]/[reschedule]). *)

val create : ?slots:int -> ?tick:float -> now:float -> unit -> 'a t
(** [create ~now ()] makes an empty wheel whose cursor starts at [now].
    Defaults: 512 slots of 50 ms (a 25.6 s rotation). *)

val schedule : 'a t -> at:float -> 'a -> 'a timer
(** Arm a timer firing at absolute time [at].  Deadlines at or before
    the wheel's cursor fire on the next {!advance}. *)

val cancel : 'a t -> 'a timer -> unit
(** Disarm; idempotent, and a no-op on a timer that already fired.  A
    cancelled timer never fires. *)

val reschedule : 'a t -> 'a timer -> at:float -> 'a timer
(** [cancel] + [schedule] with the same payload; returns the new
    handle. *)

val next_deadline : 'a t -> float option
(** Earliest deadline — what the event loop's wait timeout should be
    derived from.  [None] when nothing is armed (the loop may block
    indefinitely on IO).  Never later than the earliest armed deadline;
    after a cancellation it may be earlier, but never earlier than the
    earliest deadline still stored (a cancelled entry is stored until
    it is purged).  Allocates nothing. *)

val advance : 'a t -> now:float -> 'a list
(** Move the cursor to [now] and return the payloads of every timer
    whose deadline has passed, sorted by deadline (ties by scheduling
    order).  Monotone: a [now] before the cursor fires nothing. *)

val pending : 'a t -> int
(** Armed (scheduled, not yet fired or cancelled) timers. *)

val cancelled : 'a timer -> bool
