type 'a entry = {
  deadline : float;
  seq : int;
  payload : 'a;
  mutable slot : int;  (* -1 once fired *)
  mutable cancelled : bool;
}

type 'a timer = 'a entry

type 'a t = {
  tick : float;
  nslots : int;
  slots : 'a entry list array;
  (* Per slot: the least deadline stored (cancelled entries not yet
     purged included; [infinity] when empty), the entries stored, and
     how many of them are cancelled. *)
  slot_min : float array;
  size : int array;
  dead : int array;
  (* The least of [slot_min], with [Some earliest] built once per change
     so [next_deadline] returns it without allocating.  [stale] is set
     when a purge or a fire removed the entry that held it, and the
     next [next_deadline] walks [slot_min] again. *)
  mutable earliest : float;
  mutable earliest_opt : float option;
  mutable stale : bool;
  (* The cursor's time, unboxed so moving it allocates nothing. *)
  last : Float.Array.t;
  mutable last_tick : int;
  mutable seq : int;
  mutable pending : int;
}

let create ?(slots = 512) ?(tick = 0.05) ~now () =
  if slots <= 0 then invalid_arg "Timer_wheel.create: slots <= 0";
  if not (tick > 0.) then invalid_arg "Timer_wheel.create: tick <= 0";
  {
    tick;
    nslots = slots;
    slots = Array.make slots [];
    slot_min = Array.make slots infinity;
    size = Array.make slots 0;
    dead = Array.make slots 0;
    earliest = infinity;
    earliest_opt = None;
    stale = false;
    last = Float.Array.make 1 now;
    last_tick = int_of_float (floor (now /. tick));
    seq = 0;
    pending = 0;
  }

let tick_of w time = int_of_float (floor (time /. w.tick))

let set_earliest w m =
  if m <> w.earliest then begin
    w.earliest <- m;
    w.earliest_opt <- (if Float.is_finite m then Some m else None)
  end

let schedule w ~at payload =
  (* Overdue deadlines clamp to the cursor slot so the next [advance]
     always traverses them: slots strictly behind the cursor wait a
     whole rotation. *)
  let tk = max (tick_of w at) w.last_tick in
  let idx = tk mod w.nslots in
  let e = { deadline = at; seq = w.seq; payload; slot = idx; cancelled = false } in
  w.seq <- w.seq + 1;
  w.slots.(idx) <- e :: w.slots.(idx);
  w.size.(idx) <- w.size.(idx) + 1;
  if at < w.slot_min.(idx) then w.slot_min.(idx) <- at;
  if (not w.stale) && at < w.earliest then set_earliest w at;
  w.pending <- w.pending + 1;
  e

(* The entry stays stored, and its deadline counted in [slot_min], until
   its slot is next rebuilt.  Cancelling a fired timer changes nothing. *)
let cancel w e =
  if not e.cancelled then begin
    e.cancelled <- true;
    if e.slot >= 0 then begin
      w.dead.(e.slot) <- w.dead.(e.slot) + 1;
      w.pending <- w.pending - 1
    end
  end

let reschedule w e ~at = cancel w e; schedule w ~at e.payload

let next_deadline w =
  if w.pending = 0 then None
  else begin
    if w.stale then begin
      let m = ref infinity in
      for i = 0 to w.nslots - 1 do
        if w.slot_min.(i) < !m then m := w.slot_min.(i)
      done;
      w.stale <- false;
      set_earliest w !m
    end;
    w.earliest_opt
  end

(* Rebuild slot [idx]: fire what is due by [now] (onto [fired]), purge
   what is cancelled, and recompute the slot's least deadline. *)
let rebuild w idx ~now fired =
  let fired = ref fired and kept = ref [] and size = ref 0 in
  let m = ref infinity in
  List.iter
    (fun e ->
      if e.cancelled then ()
      else if e.deadline <= now then begin
        e.slot <- -1;
        fired := e :: !fired;
        w.pending <- w.pending - 1
      end
      else begin
        kept := e :: !kept;
        incr size;
        if e.deadline < !m then m := e.deadline
      end)
    w.slots.(idx);
  let old = w.slot_min.(idx) in
  w.slots.(idx) <- !kept;
  w.size.(idx) <- !size;
  w.dead.(idx) <- 0;
  w.slot_min.(idx) <- !m;
  if old <= w.earliest && !m > old then w.stale <- true;
  !fired

(* A slot is rebuilt only when something in it is due (a cancelled
   entry's passed deadline included, so [next_deadline] never stays
   early) or when cancelled entries outnumber live ones; otherwise it is
   left as is, so a traversal that finds nothing allocates nothing. *)
let visit w idx ~now fired =
  if w.slot_min.(idx) <= now || 2 * w.dead.(idx) > w.size.(idx) then
    rebuild w idx ~now fired
  else fired

let by_deadline a b =
  match Float.compare a.deadline b.deadline with
  | 0 -> Int.compare a.seq b.seq
  | c -> c

let advance w ~now =
  if now < Float.Array.get w.last 0 then []
  else begin
    let now_tick = tick_of w now in
    let fired = ref [] in
    (* Inclusive of the cursor slot: entries scheduled within the
       current tick (and overdue ones clamped onto it) live there. *)
    if now_tick - w.last_tick >= w.nslots then
      for i = 0 to w.nslots - 1 do
        fired := visit w i ~now !fired
      done
    else
      for tk = w.last_tick to now_tick do
        fired := visit w (tk mod w.nslots) ~now !fired
      done;
    Float.Array.set w.last 0 now;
    w.last_tick <- now_tick;
    match !fired with
    | [] -> []
    | [ e ] -> [ e.payload ]
    | fired -> List.map (fun e -> e.payload) (List.sort by_deadline fired)
  end

let pending w = w.pending
let cancelled e = e.cancelled
