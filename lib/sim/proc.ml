type id = int

exception Negative_delay

type _ Effect.t +=
  | Delay : float -> unit Effect.t
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t
  | Self : id Effect.t

let next_pid = ref 0

let names : (id, string) Hashtbl.t = Hashtbl.create 64

let name_of pid =
  match Hashtbl.find_opt names pid with Some n -> n | None -> "?"

let spawn engine ?(name = "proc") f =
  let pid = !next_pid in
  incr next_pid;
  Hashtbl.replace names pid name;
  let handler : (unit, unit) Effect.Deep.handler =
    {
      retc = (fun () -> ());
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Delay dt ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  if dt < 0. then Effect.Deep.discontinue k Negative_delay
                  else
                    Engine.schedule engine ~delay:dt (fun () ->
                        Effect.Deep.continue k ()))
          | Suspend register ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  let resumed = ref false in
                  let resume v =
                    if !resumed then
                      failwith
                        (Printf.sprintf "Proc %s: resumed twice" (name_of pid));
                    resumed := true;
                    Engine.schedule engine (fun () -> Effect.Deep.continue k v)
                  in
                  register resume)
          | Self ->
              Some (fun (k : (a, unit) Effect.Deep.continuation) ->
                  Effect.Deep.continue k pid)
          | _ -> None);
    }
  in
  Engine.schedule engine (fun () -> Effect.Deep.match_with f () handler);
  pid

let self () = Effect.perform Self

let delay dt = Effect.perform (Delay dt)

let yield () = delay 0.

let suspend register = Effect.perform (Suspend register)
