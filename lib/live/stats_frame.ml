(* Frame: u16 LE payload length, then the payload:
     pid, active, mapped            three i64 LE
     counter count (u8)             then one i64 LE each
     latency count (u16 LE)         then one IEEE-754 f64 LE each
     trace count (u16 LE)           then a u16 LE length + bytes each *)

let max_frame = 4096
let overhead ncounters = 31 + (8 * ncounters)
let max_trace = max_frame - overhead 0 - 2

type t = {
  pid : int;
  active : int;
  mapped : int;
  counters : int array;
  latencies : float list;
  traces : string list;
}

let render r ~counters ~latencies ~traces =
  let b = Buffer.create 256 in
  Buffer.add_uint16_le b 0;
  List.iter
    (fun v -> Buffer.add_int64_le b (Int64.of_int v))
    [ r.pid; r.active; r.mapped ];
  Buffer.add_uint8 b (Array.length counters);
  Array.iter (fun v -> Buffer.add_int64_le b (Int64.of_int v)) counters;
  Buffer.add_uint16_le b (List.length latencies);
  List.iter (fun l -> Buffer.add_int64_le b (Int64.bits_of_float l)) latencies;
  Buffer.add_uint16_le b (List.length traces);
  List.iter
    (fun s ->
      Buffer.add_uint16_le b (String.length s);
      Buffer.add_string b s)
    traces;
  let frame = Buffer.to_bytes b in
  Bytes.set_uint16_le frame 0 (Bytes.length frame - 2);
  Bytes.unsafe_to_string frame

(* The longest prefix of [l] whose costs fit in [room]. *)
let take ~cost room l =
  let rec go room acc = function
    | x :: rest when cost x <= room -> go (room - cost x) (x :: acc) rest
    | rest -> (List.rev acc, rest, room)
  in
  go room [] l

let encode r =
  if Array.length r.counters > 255 then
    invalid_arg "Stats_frame.encode: more than 255 counters";
  let traces = List.filter (fun s -> String.length s <= max_trace) r.traces in
  (* Every continuation frame makes progress: it has room for one
     latency or for any trace that passed the filter. *)
  let rec frames counters latencies traces acc =
    let room = max_frame - overhead (Array.length counters) in
    let lat, latencies, room = take ~cost:(fun _ -> 8) room latencies in
    let tr, traces, _ =
      take ~cost:(fun s -> 2 + String.length s) room traces
    in
    let acc = render r ~counters ~latencies:lat ~traces:tr :: acc in
    if latencies = [] && traces = [] then List.rev acc
    else frames [||] latencies traces acc
  in
  frames r.counters r.latencies traces []

(* Decode one frame's payload; [None] unless it parses exactly.  Reads
   run in order: [Array.init] applies its function left to right. *)
let parse s =
  let p = ref 0 in
  let next n get =
    let v = get s !p in
    p := !p + n;
    v
  in
  let i64 () = next 8 String.get_int64_le in
  let u16 () = next 2 String.get_uint16_le in
  let list n f = Array.to_list (Array.init n (fun _ -> f ())) in
  match
    let pid = Int64.to_int (i64 ()) in
    let active = Int64.to_int (i64 ()) in
    let mapped = Int64.to_int (i64 ()) in
    let counters =
      Array.init (next 1 String.get_uint8) (fun _ -> Int64.to_int (i64 ()))
    in
    let latencies = list (u16 ()) (fun () -> Int64.float_of_bits (i64 ())) in
    let traces =
      list (u16 ()) (fun () ->
          let n = u16 () in
          next n (fun s p -> String.sub s p n))
    in
    if !p <> String.length s then raise Exit;
    { pid; active; mapped; counters; latencies; traces }
  with
  | r -> Some r
  | exception (Exit | Invalid_argument _) -> None

type decoder = { mutable pending : string }

let decoder () = { pending = "" }

let feed d buf len =
  let s = d.pending ^ Bytes.sub_string buf 0 len in
  let n = String.length s in
  let rec go pos acc =
    if pos + 2 > n then (pos, acc)
    else
      let plen = String.get_uint16_le s pos in
      if pos + 2 + plen > n then (pos, acc)
      else
        let acc =
          match parse (String.sub s (pos + 2) plen) with
          | Some r -> r :: acc
          | None -> acc
        in
        go (pos + 2 + plen) acc
  in
  let pos, acc = go 0 [] in
  d.pending <- String.sub s pos (n - pos);
  List.rev acc
