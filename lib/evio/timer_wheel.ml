type 'a entry = {
  deadline : float;
  seq : int;
  payload : 'a;
  mutable cancelled : bool;
}

type 'a timer = 'a entry

type 'a t = {
  tick : float;
  nslots : int;
  slots : 'a entry list array;
  (* Cached minimum live deadline per slot.  Cancellation leaves it
     stale-low (never stale-high), so [next_deadline] can only err on
     the early side: the loop wakes, fires nothing, and the slot is
     recomputed when [advance] traverses it. *)
  slot_min : float array;
  mutable last : float;
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
    last = now;
    last_tick = int_of_float (floor (now /. tick));
    seq = 0;
    pending = 0;
  }

let tick_of w time = int_of_float (floor (time /. w.tick))

let schedule w ~at payload =
  let e = { deadline = at; seq = w.seq; payload; cancelled = false } in
  w.seq <- w.seq + 1;
  (* Overdue deadlines clamp to the cursor slot so the next [advance]
     always traverses them: slots strictly behind the cursor wait a
     whole rotation. *)
  let tk = max (tick_of w at) w.last_tick in
  let idx = tk mod w.nslots in
  w.slots.(idx) <- e :: w.slots.(idx);
  if at < w.slot_min.(idx) then w.slot_min.(idx) <- at;
  w.pending <- w.pending + 1;
  e

let cancel w e =
  if not e.cancelled then begin
    e.cancelled <- true;
    w.pending <- w.pending - 1
  end

let reschedule w e ~at = cancel w e; schedule w ~at e.payload

let next_deadline w =
  if w.pending = 0 then None
  else begin
    let m = ref infinity in
    for i = 0 to w.nslots - 1 do
      if w.slot_min.(i) < !m then m := w.slot_min.(i)
    done;
    if Float.is_finite !m then Some !m else None
  end

let advance w ~now =
  if now < w.last then []
  else begin
    let fired = ref [] in
    let process idx =
      let kept = ref [] and m = ref infinity in
      List.iter
        (fun e ->
          if e.cancelled then () (* purge *)
          else if e.deadline <= now then begin
            fired := e :: !fired;
            w.pending <- w.pending - 1
          end
          else begin
            kept := e :: !kept;
            if e.deadline < !m then m := e.deadline
          end)
        w.slots.(idx);
      w.slots.(idx) <- !kept;
      w.slot_min.(idx) <- !m
    in
    let now_tick = tick_of w now in
    (* Inclusive of the cursor slot: entries scheduled within the
       current tick (and overdue ones clamped onto it) live there. *)
    if now_tick - w.last_tick >= w.nslots then
      for i = 0 to w.nslots - 1 do process i done
    else
      for tk = w.last_tick to now_tick do process (tk mod w.nslots) done;
    w.last <- now;
    w.last_tick <- now_tick;
    !fired
    |> List.sort (fun a b ->
           match compare a.deadline b.deadline with
           | 0 -> compare a.seq b.seq
           | c -> c)
    |> List.map (fun e -> e.payload)
  end

let pending w = w.pending
let cancelled e = e.cancelled
