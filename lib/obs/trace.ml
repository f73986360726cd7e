type span_data = {
  name : string;
  track : string;
  t_start : float;
  t_stop : float;
  depth : int;
}

type trace_data = {
  id : int;
  label : string;
  t_begin : float;
  t_end : float;
  spans : span_data list;
  truncated : int;
}

type span = {
  sp_name : string;
  sp_track : string;
  sp_start : float;
  mutable sp_stop : float;  (* nan while open *)
  sp_depth : int;
  sp_dropped : bool;  (* over the per-trace bound: a no-op handle *)
  sp_trace : trace;
}

and trace = {
  tr_id : int;
  mutable tr_label : string;
  tr_start : float;
  mutable tr_spans : span list;  (* reverse begin order *)
  mutable tr_nspans : int;
  mutable tr_truncated : int;
  mutable tr_open : span list;  (* stack, innermost first *)
  mutable tr_finished : bool;
}

type t = {
  clock : unit -> float;
  track : string;
  cap : int;
  span_cap : int;
  ring : trace_data option array;
  mutable head : int;  (* next write slot *)
  mutable len : int;
  mutable next_id : int;
  mutable n_completed : int;
}

let create ~clock ?(capacity = 256) ?(max_spans = 64) ?(track = "main-loop")
    () =
  if capacity < 1 then invalid_arg "Trace.create: capacity < 1";
  if max_spans < 1 then invalid_arg "Trace.create: max_spans < 1";
  {
    clock;
    track;
    cap = capacity;
    span_cap = max_spans;
    ring = Array.make capacity None;
    head = 0;
    len = 0;
    next_id = 0;
    n_completed = 0;
  }

let capacity t = t.cap
let max_spans t = t.span_cap
let default_track t = t.track
let now t = t.clock ()

let start t ?at ?(label = "request") () =
  let id = t.next_id in
  t.next_id <- id + 1;
  {
    tr_id = id;
    tr_label = label;
    tr_start = (match at with Some a -> a | None -> t.clock ());
    tr_spans = [];
    tr_nspans = 0;
    tr_truncated = 0;
    tr_open = [];
    tr_finished = false;
  }

let id tr = tr.tr_id
let label tr = tr.tr_label
let start_of tr = tr.tr_start
let relabel tr label = tr.tr_label <- label

let dropped_span tr name track start =
  {
    sp_name = name;
    sp_track = track;
    sp_start = start;
    sp_stop = start;
    sp_depth = 0;
    sp_dropped = true;
    sp_trace = tr;
  }

let begin_span t tr ?track name =
  let track = match track with Some s -> s | None -> t.track in
  let at = t.clock () in
  if tr.tr_finished || tr.tr_nspans >= t.span_cap then begin
    if not tr.tr_finished then tr.tr_truncated <- tr.tr_truncated + 1;
    dropped_span tr name track at
  end
  else begin
    let sp =
      {
        sp_name = name;
        sp_track = track;
        sp_start = at;
        sp_stop = Float.nan;
        sp_depth = List.length tr.tr_open;
        sp_dropped = false;
        sp_trace = tr;
      }
    in
    tr.tr_spans <- sp :: tr.tr_spans;
    tr.tr_nspans <- tr.tr_nspans + 1;
    tr.tr_open <- sp :: tr.tr_open;
    sp
  end

(* Closing a span closes any still-open spans begun inside it at the
   same instant, so begin/end pairs always produce well-nested
   intervals even when callers interleave ends out of order. *)
let end_span t sp =
  if (not sp.sp_dropped) && Float.is_nan sp.sp_stop then begin
    let at = t.clock () in
    let tr = sp.sp_trace in
    if List.memq sp tr.tr_open then begin
      let rec pop = function
        | [] -> []
        | s :: rest ->
            if Float.is_nan s.sp_stop then s.sp_stop <- at;
            if s == sp then rest else pop rest
      in
      tr.tr_open <- pop tr.tr_open
    end
    else sp.sp_stop <- at
  end

let add_span t ?track ~name ~start ~stop tr =
  let track = match track with Some s -> s | None -> t.track in
  if tr.tr_finished || tr.tr_nspans >= t.span_cap then begin
    if not tr.tr_finished then tr.tr_truncated <- tr.tr_truncated + 1
  end
  else begin
    let sp =
      {
        sp_name = name;
        sp_track = track;
        sp_start = start;
        sp_stop = stop;
        sp_depth = List.length tr.tr_open;
        sp_dropped = false;
        sp_trace = tr;
      }
    in
    tr.tr_spans <- sp :: tr.tr_spans;
    tr.tr_nspans <- tr.tr_nspans + 1
  end

let instant t tr ?track name =
  let at = t.clock () in
  add_span t ?track ~name ~start:at ~stop:at tr

let push t data =
  t.ring.(t.head) <- Some data;
  t.head <- (t.head + 1) mod t.cap;
  if t.len < t.cap then t.len <- t.len + 1;
  t.n_completed <- t.n_completed + 1

let data_of_trace tr ~t_end =
  let spans =
    List.rev_map
      (fun sp ->
        {
          name = sp.sp_name;
          track = sp.sp_track;
          t_start = sp.sp_start;
          t_stop = (if Float.is_nan sp.sp_stop then t_end else sp.sp_stop);
          depth = sp.sp_depth;
        })
      tr.tr_spans
  in
  {
    id = tr.tr_id;
    label = tr.tr_label;
    t_begin = tr.tr_start;
    t_end;
    spans;
    truncated = tr.tr_truncated;
  }

let finish t ?at tr =
  let at = match at with Some a -> a | None -> t.clock () in
  if tr.tr_finished then data_of_trace tr ~t_end:at
  else begin
    List.iter
      (fun sp -> if Float.is_nan sp.sp_stop then sp.sp_stop <- at)
      tr.tr_open;
    tr.tr_open <- [];
    tr.tr_finished <- true;
    let data = data_of_trace tr ~t_end:at in
    push t data;
    data
  end

let ingest t data =
  let id = t.next_id in
  t.next_id <- id + 1;
  push t { data with id }

let completed t = t.n_completed
let evicted t = Stdlib.max 0 (t.n_completed - t.cap)

let snapshot t =
  let out = ref [] in
  for i = t.len - 1 downto 0 do
    let slot = (t.head - 1 - i + (2 * t.cap)) mod t.cap in
    match t.ring.(slot) with
    | Some data -> out := data :: !out
    | None -> ()
  done;
  List.rev !out

let reset t =
  Array.fill t.ring 0 t.cap None;
  t.head <- 0;
  t.len <- 0;
  t.n_completed <- 0

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                           *)
(* ------------------------------------------------------------------ *)

let to_chrome_json traces =
  let base =
    List.fold_left (fun acc tr -> Float.min acc tr.t_begin) Float.infinity traces
  in
  let base = if Float.is_finite base then base else 0. in
  let us x = (x -. base) *. 1e6 in
  let pids = Hashtbl.create 8 in
  let pid_order = ref [] in
  let pid_of track =
    match Hashtbl.find_opt pids track with
    | Some p -> p
    | None ->
        let p = Hashtbl.length pids + 1 in
        Hashtbl.add pids track p;
        pid_order := (track, p) :: !pid_order;
        p
  in
  let events = Buffer.create 4096 in
  List.iter
    (fun tr ->
      List.iter
        (fun sp ->
          if Buffer.length events > 0 then Buffer.add_char events ',';
          Buffer.add_string events
            (Printf.sprintf
               {|{"name":%s,"cat":"request","ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":1,"args":{"trace":%d,"label":%s,"depth":%d}}|}
               (Json.str sp.name) (us sp.t_start)
               ((sp.t_stop -. sp.t_start) *. 1e6)
               (pid_of sp.track) tr.id (Json.str tr.label) sp.depth))
        tr.spans)
    traces;
  let meta = Buffer.create 256 in
  List.iter
    (fun (track, p) ->
      if Buffer.length meta > 0 then Buffer.add_char meta ',';
      Buffer.add_string meta
        (Printf.sprintf
           {|{"name":"process_name","ph":"M","pid":%d,"args":{"name":%s}}|} p
           (Json.str track)))
    (List.rev !pid_order);
  let b = Buffer.create (Buffer.length events + Buffer.length meta + 32) in
  Buffer.add_string b {|{"traceEvents":[|};
  Buffer.add_buffer b meta;
  if Buffer.length meta > 0 && Buffer.length events > 0 then
    Buffer.add_char b ',';
  Buffer.add_buffer b events;
  Buffer.add_string b "]}";
  Buffer.contents b

let summary data =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "trace %d %S %.3f ms:" data.id data.label
       (1000. *. (data.t_end -. data.t_begin)));
  List.iteri
    (fun i sp ->
      Buffer.add_string b (if i = 0 then " " else "; ");
      Buffer.add_string b
        (Printf.sprintf "%s %.3fms@%s" sp.name
           (1000. *. (sp.t_stop -. sp.t_start))
           sp.track))
    data.spans;
  if data.truncated > 0 then
    Buffer.add_string b (Printf.sprintf " (+%d spans dropped)" data.truncated);
  Buffer.contents b
