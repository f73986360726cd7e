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

(* A trace in flight keeps its spans in arrays, grown when a longer
   trace needs room: stamps unboxed in [tr_times] (the trace's start,
   then start and stop per span, stop nan while open), names, tracks
   and depths beside them, and the indices of the open spans as a
   stack.  A span handle names its trace and index. *)
type trace = {
  tr_id : int;
  tr_label : string;
  mutable tr_times : float array;  (* flat: its stamps are unboxed *)
  mutable tr_names : string array;
  mutable tr_tracks : string array;
  mutable tr_depths : int array;
  mutable tr_stack : int array;
  mutable tr_n : int;  (* spans kept *)
  mutable tr_open : int;  (* height of [tr_stack] *)
  mutable tr_truncated : int;
  mutable tr_finished : bool;
}

type span = { sp_trace : trace; sp_index : int (* -1: over the bound *) }

(* One live request's phase stamps: a record of floats only, so each is
   stored unboxed. *)
type stamps = {
  mutable accepted : float;
  mutable head : float;
  mutable parsed : float;
  mutable looked_up : float;
  mutable work_start : float;
  mutable work_stop : float;
  mutable enqueued : float;
  mutable started : float;
  mutable finished : float;
  mutable ready : float;
  mutable ended : float;
}

(* One ring entry, rewritten in place each time the ring wraps onto it.
   Nothing a finished trace allocated stays reachable from here: the
   stamps are unboxed in [s_times] (begin, end, then start and stop per
   span), the label is copied into [s_label], and the span arrays are
   reused until a longer trace lands. *)
type slot = {
  mutable s_id : int;
  mutable s_label : Bytes.t;
  mutable s_label_len : int;
  mutable s_spans : int;
  mutable s_truncated : int;
  mutable s_times : Float.Array.t;
  mutable s_names : string array;
  mutable s_tracks : string array;
  mutable s_depths : int array;
}

type t = {
  clock : unit -> float;
  track : string;
  cap : int;
  span_cap : int;
  slots : slot array;  (* [unused] until first written *)
  mutable head : int;  (* next write slot *)
  mutable len : int;
  next_id : int Atomic.t;
  mutable n_completed : int;
}

let new_slot () =
  {
    s_id = 0;
    s_label = Bytes.empty;
    s_label_len = 0;
    s_spans = 0;
    s_truncated = 0;
    s_times = Float.Array.create 2;
    s_names = [||];
    s_tracks = [||];
    s_depths = [||];
  }

let unused = new_slot ()

let create ~clock ?(capacity = 256) ?(max_spans = 64) ?(track = "main-loop")
    () =
  if capacity < 1 then invalid_arg "Trace.create: capacity < 1";
  if max_spans < 1 then invalid_arg "Trace.create: max_spans < 1";
  {
    clock;
    track;
    cap = capacity;
    span_cap = max_spans;
    slots = Array.make capacity unused;
    head = 0;
    len = 0;
    next_id = Atomic.make 0;
    n_completed = 0;
  }

let capacity t = t.cap
let max_spans t = t.span_cap
let now t = t.clock ()

(* A new trace has room for a keep-alive request's four spans; the
   literals allocate inline, where [Array.make] calls the runtime. *)
let start t ?at ?(label = "request") () =
  let at = match at with Some a -> a | None -> t.clock () in
  {
    tr_id = Atomic.fetch_and_add t.next_id 1;
    tr_label = label;
    tr_times = [| at; 0.; 0.; 0.; 0.; 0.; 0.; 0.; 0. |];
    tr_names = [| ""; ""; ""; "" |];
    tr_tracks = [| ""; ""; ""; "" |];
    tr_depths = [| 0; 0; 0; 0 |];
    tr_stack = [| 0; 0; 0; 0 |];
    tr_n = 0;
    tr_open = 0;
    tr_truncated = 0;
    tr_finished = false;
  }

let[@inline] span_start tr j = tr.tr_times.(1 + (2 * j))
let[@inline] span_stop tr j = tr.tr_times.(2 + (2 * j))
let[@inline] set_stop tr j at = tr.tr_times.(2 + (2 * j)) <- at

let grow tr =
  let cap = Array.length tr.tr_names in
  let cap' = 2 * cap in
  let extend a fill =
    let b = Array.make cap' fill in
    Array.blit a 0 b 0 cap;
    b
  in
  let times = Array.make (1 + (2 * cap')) 0. in
  Array.blit tr.tr_times 0 times 0 (1 + (2 * cap));
  tr.tr_times <- times;
  tr.tr_names <- extend tr.tr_names "";
  tr.tr_tracks <- extend tr.tr_tracks "";
  tr.tr_depths <- extend tr.tr_depths 0;
  tr.tr_stack <- extend tr.tr_stack 0

(* Keep one more span; its index, or -1 past the per-trace bound (then
   counted in [tr_truncated]). *)
let push t tr ~name ~track ~start ~stop =
  if tr.tr_finished then -1
  else if tr.tr_n >= t.span_cap then begin
    tr.tr_truncated <- tr.tr_truncated + 1;
    -1
  end
  else begin
    if tr.tr_n = Array.length tr.tr_names then grow tr;
    let j = tr.tr_n in
    tr.tr_n <- j + 1;
    if tr.tr_names.(j) != name then tr.tr_names.(j) <- name;
    if tr.tr_tracks.(j) != track then tr.tr_tracks.(j) <- track;
    tr.tr_times.(1 + (2 * j)) <- start;
    set_stop tr j stop;
    tr.tr_depths.(j) <- tr.tr_open;
    j
  end

let stamp t = function Some at -> at | None -> t.clock ()

let begin_span t tr ?(track = t.track) ?at name =
  let j = push t tr ~name ~track ~start:(stamp t at) ~stop:Float.nan in
  if j >= 0 then begin
    tr.tr_stack.(tr.tr_open) <- j;
    tr.tr_open <- tr.tr_open + 1
  end;
  { sp_trace = tr; sp_index = j }

(* Closing a span closes any still-open spans begun inside it at the
   same instant, so begin/end pairs always produce well-nested
   intervals even when callers interleave ends out of order. *)
(* The stack position of open span [j] at or below [k]; -1 if not
   open. *)
let rec stack_pos tr j k =
  if k < 0 || tr.tr_stack.(k) = j then k else stack_pos tr j (k - 1)

let end_span t ?at sp =
  let tr = sp.sp_trace and j = sp.sp_index in
  if j >= 0 && Float.is_nan (span_stop tr j) then begin
    let at = stamp t at in
    let k = stack_pos tr j (tr.tr_open - 1) in
    if k < 0 then set_stop tr j at
    else begin
      for i = k to tr.tr_open - 1 do
        let s = tr.tr_stack.(i) in
        if Float.is_nan (span_stop tr s) then set_stop tr s at
      done;
      tr.tr_open <- k
    end
  end

let add_span t ?track ~name ~start ~stop tr =
  let track = match track with Some s -> s | None -> t.track in
  ignore (push t tr ~name ~track ~start ~stop)

let instant t tr ?(track = t.track) ?at name =
  let at = stamp t at in
  ignore (push t tr ~name ~track ~start:at ~stop:at)

(* ------------------------------------------------------------------ *)
(* The ring                                                            *)
(* ------------------------------------------------------------------ *)

(* Labels shorter than this never resize a slot's buffer; a longer one
   is given up once a label under half its size lands, so a slot holds
   at most twice what its current label needs. *)
let label_min = 64

(* The label "METH target", or [target] alone when [meth] is empty. *)
let set_label s ~meth ~target =
  let m = String.length meth and n = String.length target in
  let len = if m = 0 then n else m + 1 + n in
  let cap = Bytes.length s.s_label in
  if len > cap || (cap > label_min && cap > 2 * len) then
    s.s_label <- Bytes.create (Int.max label_min len);
  if m > 0 then begin
    Bytes.blit_string meth 0 s.s_label 0 m;
    Bytes.set s.s_label m ' '
  end;
  Bytes.blit_string target 0 s.s_label (len - n) n;
  s.s_label_len <- len

(* The slot the next completed trace lands in, with room for [n]
   spans. *)
let next_slot t n =
  let s =
    match t.slots.(t.head) with
    | s when s != unused -> s
    | _ ->
        let s = new_slot () in
        t.slots.(t.head) <- s;
        s
  in
  let room = Array.length s.s_names in
  if room < n then begin
    let room = Int.max n (Int.min t.span_cap (2 * room)) in
    s.s_times <- Float.Array.create (2 + (2 * room));
    s.s_names <- Array.make room "";
    s.s_tracks <- Array.make room "";
    s.s_depths <- Array.make room 0
  end;
  s

(* A reused slot mostly gets the names and tracks it already holds, so
   the pointer test skips most write barriers. *)
let[@inline] set_span s j ~name ~track ~start ~stop ~depth =
  if s.s_names.(j) != name then s.s_names.(j) <- name;
  if s.s_tracks.(j) != track then s.s_tracks.(j) <- track;
  Float.Array.set s.s_times (2 + (2 * j)) start;
  Float.Array.set s.s_times (3 + (2 * j)) stop;
  s.s_depths.(j) <- depth

let[@inline] fill_slot s ~id ~label ~t_begin ~t_end ~spans ~truncated =
  s.s_id <- id;
  set_label s ~meth:"" ~target:label;
  s.s_spans <- spans;
  s.s_truncated <- truncated;
  Float.Array.set s.s_times 0 t_begin;
  Float.Array.set s.s_times 1 t_end

let advance t =
  t.head <- (if t.head + 1 = t.cap then 0 else t.head + 1);
  if t.len < t.cap then t.len <- t.len + 1;
  t.n_completed <- t.n_completed + 1

let complete t ?at tr =
  if not tr.tr_finished then begin
    let at = stamp t at in
    for i = 0 to tr.tr_open - 1 do
      let j = tr.tr_stack.(i) in
      if Float.is_nan (span_stop tr j) then set_stop tr j at
    done;
    tr.tr_open <- 0;
    tr.tr_finished <- true;
    let n = tr.tr_n in
    let s = next_slot t n in
    fill_slot s ~id:tr.tr_id ~label:tr.tr_label
      ~t_begin:tr.tr_times.(0) ~t_end:at ~spans:n
      ~truncated:tr.tr_truncated;
    for j = 0 to n - 1 do
      let stop = span_stop tr j in
      set_span s j ~name:tr.tr_names.(j) ~track:tr.tr_tracks.(j)
        ~start:(span_start tr j)
        ~stop:(if Float.is_nan stop then at else stop)
        ~depth:tr.tr_depths.(j)
    done;
    advance t
  end

let data_of_trace tr ~t_end =
  let rec spans j acc =
    if j < 0 then acc
    else
      let stop = span_stop tr j in
      spans (j - 1)
        ({
           name = tr.tr_names.(j);
           track = tr.tr_tracks.(j);
           t_start = span_start tr j;
           t_stop = (if Float.is_nan stop then t_end else stop);
           depth = tr.tr_depths.(j);
         }
        :: acc)
  in
  {
    id = tr.tr_id;
    label = tr.tr_label;
    t_begin = tr.tr_times.(0);
    t_end;
    spans = spans (tr.tr_n - 1) [];
    truncated = tr.tr_truncated;
  }

let finish t ?at tr =
  let at = stamp t at in
  complete t ~at tr;
  data_of_trace tr ~t_end:at

(* ------------------------------------------------------------------ *)
(* A live request, written once                                        *)
(* ------------------------------------------------------------------ *)

let clear (st : stamps) =
  st.head <- Float.nan;
  st.parsed <- Float.nan;
  st.looked_up <- Float.nan;
  st.work_start <- Float.nan;
  st.work_stop <- Float.nan;
  st.enqueued <- Float.nan;
  st.started <- Float.nan;
  st.finished <- Float.nan;
  st.ready <- Float.nan;
  st.ended <- Float.nan

let stamps () =
  {
    accepted = nan;
    head = nan;
    parsed = nan;
    looked_up = nan;
    work_start = nan;
    work_stop = nan;
    enqueued = nan;
    started = nan;
    finished = nan;
    ready = nan;
    ended = nan;
  }

(* Span [j] of a slot holding [kept] spans; the index of the next. *)
let[@inline] put s ~kept j name ~track ~start ~stop ~depth =
  if j < kept then set_span s j ~name ~track ~start ~stop ~depth;
  j + 1

let[@inline] present x = not (Float.is_nan x)

(* The spans the request's stamps imply, in the order the request went
   through them.  A span still open at [ended] (a head that never
   parsed, work cut short by a close) ends there, and spans begun
   while it was open sit one deeper, as {!begin_span} nests them. *)
let record t st ~track ~work ~meth ~target ~closing =
  let at = st.ended in
  let first = present st.accepted
  and parsed = present st.parsed
  and resolved = present st.looked_up
  and worked = String.length work > 0
  and helped = present st.enqueued
  and written = present st.ready in
  let work_open = worked && not (present st.work_stop) in
  let n =
    2 + Bool.to_int resolved + Bool.to_int worked + (2 * Bool.to_int helped)
    + Bool.to_int written + Bool.to_int closing
  in
  let kept = Int.min n t.span_cap in
  let s = next_slot t kept in
  s.s_id <- Atomic.fetch_and_add t.next_id 1;
  set_label s ~meth ~target;
  s.s_spans <- kept;
  s.s_truncated <- n - kept;
  Float.Array.set s.s_times 0 (if first then st.accepted else st.head);
  Float.Array.set s.s_times 1 at;
  let j =
    if first then
      put s ~kept 0 "accept" ~track ~start:st.accepted ~stop:st.accepted
        ~depth:0
    else
      put s ~kept 0 "keepalive-reuse" ~track ~start:st.head ~stop:st.head
        ~depth:0
  in
  let j =
    put s ~kept j "parse" ~track ~start:st.head
      ~stop:(if parsed then st.parsed else at)
      ~depth:0
  in
  let j =
    if resolved then
      put s ~kept j "resolve" ~track ~start:st.parsed ~stop:st.looked_up
        ~depth:0
    else j
  in
  let j =
    if worked then
      put s ~kept j work ~track ~start:st.work_start
        ~stop:(if work_open then at else st.work_stop)
        ~depth:0
    else j
  in
  let j =
    if helped then
      let j =
        put s ~kept j "helper-queue" ~track:"helper" ~start:st.enqueued
          ~stop:st.started ~depth:0
      in
      put s ~kept j "disk-read" ~track:"helper" ~start:st.started
        ~stop:st.finished ~depth:0
    else j
  in
  let j =
    if written then
      put s ~kept j "write" ~track ~start:st.ready ~stop:at
        ~depth:(if parsed then 0 else 1)
    else j
  in
  if closing then
    ignore
      (put s ~kept j "close" ~track ~start:at ~stop:at
         ~depth:(if parsed && not work_open then 0 else 1));
  advance t

let ingest t data =
  let n = List.length data.spans in
  let s = next_slot t n in
  fill_slot s ~id:(Atomic.fetch_and_add t.next_id 1) ~label:data.label
    ~t_begin:data.t_begin ~t_end:data.t_end ~spans:n ~truncated:data.truncated;
  List.iteri
    (fun j sp ->
      set_span s j ~name:sp.name ~track:sp.track ~start:sp.t_start
        ~stop:sp.t_stop ~depth:sp.depth)
    data.spans;
  advance t

let completed t = t.n_completed
let evicted t = Stdlib.max 0 (t.n_completed - t.cap)

let data_of_slot s =
  let times = s.s_times in
  let rec spans j acc =
    if j < 0 then acc
    else
      spans (j - 1)
        ({
           name = s.s_names.(j);
           track = s.s_tracks.(j);
           t_start = Float.Array.get times (2 + (2 * j));
           t_stop = Float.Array.get times (3 + (2 * j));
           depth = s.s_depths.(j);
         }
        :: acc)
  in
  {
    id = s.s_id;
    label = Bytes.sub_string s.s_label 0 s.s_label_len;
    t_begin = Float.Array.get times 0;
    t_end = Float.Array.get times 1;
    spans = spans (s.s_spans - 1) [];
    truncated = s.s_truncated;
  }

(* The newest [n] ring entries, oldest first. *)
let newest t n =
  List.init n (fun k ->
      data_of_slot t.slots.((t.head - n + k + t.cap) mod t.cap))

let snapshot t = newest t t.len

let since t mark =
  newest t (Int.min t.len (Stdlib.max 0 (t.n_completed - mark)))

let reset t =
  Array.fill t.slots 0 t.cap unused;
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

let summary ?since data =
  let since = match since with Some s -> s | None -> data.t_begin in
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "trace %d %S %.3f ms:" data.id data.label
       (1000. *. (data.t_end -. since)));
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
