(* Flight recorder: a fixed-size ring of per-window rollups, each the
   registry walk at window close diffed against the walk at window
   open.  It names no metric — counters and histograms diff, gauges and
   info series are read as they stand — so a window is keyed exactly
   like every other view of the walk.  Windows close lazily — whoever
   touches the recorder (a timer tick, a status read, a dump) calls
   [tick], so a quiet server simply produces one long window instead of
   a backlog of empty ones. *)

type rollup = { start : float; dur : float; samples : Registry.sample list }

type t = {
  capacity : int;
  interval : float;
  now : unit -> float;
  read : unit -> Registry.sample list;
  on_rollup : rollup -> unit;
  mutable prev : Registry.sample list;
  mutable window_start : float;
  mutable ring : rollup list;  (* newest first, length <= capacity *)
}

let create ?(capacity = 120) ?(interval = 1.0) ~now ~read ?(on_rollup = fun _ -> ()) () =
  if capacity < 1 then invalid_arg "Obs.Recorder.create: capacity < 1";
  if not (interval > 0.) then invalid_arg "Obs.Recorder.create: interval <= 0";
  { capacity; interval; now; read; on_rollup; prev = read (); window_start = now (); ring = [] }

let capacity t = t.capacity
let interval t = t.interval

let truncate n l =
  let rec go n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: go (n - 1) tl
  in
  go n l

(* [walk] less [older], series by series.  A series [older] lacks
   (registered or first aggregated mid-run) diffs against zero. *)
let delta ~older walk =
  let prev = Hashtbl.create 64 in
  List.iter
    (fun (s : Registry.sample) ->
      Hashtbl.replace prev (s.Registry.name, s.Registry.labels) s.Registry.value)
    older;
  List.map
    (fun (s : Registry.sample) ->
      match
        (s.Registry.value, Hashtbl.find_opt prev (s.Registry.name, s.Registry.labels))
      with
      | Registry.Counter n, Some (Registry.Counter p) ->
          { s with Registry.value = Registry.Counter (n - p) }
      | Registry.Hist h, Some (Registry.Hist p) ->
          { s with Registry.value = Registry.Hist (Histogram.diff h p) }
      | _ -> s)
    walk

let close_window t now =
  let walk = t.read () in
  let r =
    { start = t.window_start; dur = now -. t.window_start; samples = delta ~older:t.prev walk }
  in
  t.prev <- walk;
  t.window_start <- now;
  t.ring <- truncate t.capacity (r :: t.ring);
  t.on_rollup r

let tick ?now t =
  let now = match now with Some n -> n | None -> t.now () in
  (* A window that overran (missed ticks on a blocked loop) closes as
     one long window; [dur] carries the truth and rates divide by it. *)
  if now -. t.window_start >= t.interval then close_window t now

(* Force the current (partial) window shut — dumps want the tail even
   when less than an interval has elapsed. *)
let flush t =
  let now = t.now () in
  if now -. t.window_start > 0. then close_window t now

let window t n =
  tick t;
  List.rev (truncate (Stdlib.max 0 n) t.ring)

let all t =
  tick t;
  List.rev t.ring

(* Window bounds are Unix timestamps: fixed-point milliseconds keep
   consecutive windows apart, where significant-digit formats round a
   whole ring onto one start. *)
let seconds = Printf.sprintf "%.3f"

let rollup_json r =
  String.concat ","
    (Printf.sprintf "{\"t\":%s,\"dur\":%s" (seconds r.start) (seconds r.dur)
    :: List.map
         (fun (k, v) -> Json.str k ^ ":" ^ v)
         (Exposition.listing r.samples))
  ^ "}"

let rollups_json rs = "[" ^ String.concat "," (List.map rollup_json rs) ^ "]"

let dump_json t =
  flush t;
  Printf.sprintf "{\"capacity\":%d,\"interval\":%g,\"rollups\":%s}" t.capacity
    t.interval
    (rollups_json (List.rev t.ring))
