(** Simulated processes.

    A simulated process is an OCaml function run under an effect handler:
    blocking operations ({!delay}, {!suspend}, and everything in {!Sync}
    and {!Cpu} built on them) capture the continuation and hand control
    back to the {!Engine}, which resumes it when the virtual time or the
    awaited condition arrives.  This lets the MP/MT server architectures
    be written as straight-line blocking code while SPED/AMPED run as a
    single event-loop process — mirroring how the paper's four servers
    share one code base. *)

type id = int

(** Raised inside a process on [delay] with a negative duration. *)
exception Negative_delay

(** [spawn engine ~name f] schedules process [f] to start at the current
    virtual time and returns its id.  An exception escaping [f] is
    re-raised out of the engine's [run] (a simulation bug, not a modeled
    condition). *)
val spawn : Engine.t -> ?name:string -> (unit -> unit) -> id

(** Id of the running process.  Must be called from process context. *)
val self : unit -> id

(** Name given at [spawn] time, for diagnostics. *)
val name_of : id -> string

(** Advance virtual time by [dt] without consuming any modeled resource. *)
val delay : float -> unit

(** Reschedule at the same virtual time, letting other ready events run. *)
val yield : unit -> unit

(** [suspend register] parks the process.  [register] receives a one-shot
    [resume] function; calling it schedules the process to continue with
    the provided value.  All blocking primitives reduce to this. *)
val suspend : (('a -> unit) -> unit) -> 'a
