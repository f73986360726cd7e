(** Integers rendered for the header path without the C formatter that
    backs [string_of_int] and [Printf] (one [snprintf] call each). *)

(** [decimal n] is [string_of_int n]. *)
val decimal : int -> string

(** [hex n] is [Printf.sprintf "%x" n]: lowercase digits, [n] read as
    an unsigned 63-bit int, so a negative [n] starts with 4-7. *)
val hex : int -> string
