type t = {
  walk : Obs.Registry.sample list;
  traces : Obs.Trace.trace_data list;
}

let encode (r : t) = Marshal.to_string r []

type decoder = { mutable pending : string }

let decoder () = { pending = "" }

let feed d buf len =
  let s = d.pending ^ Bytes.sub_string buf 0 len in
  let n = String.length s in
  let rec go pos acc =
    if n - pos < Marshal.header_size then (pos, acc)
    else
      let size = Marshal.total_size (Bytes.unsafe_of_string s) pos in
      if n - pos < size then (pos, acc)
      else go (pos + size) ((Marshal.from_string s pos : t) :: acc)
  in
  let pos, acc = go 0 [] in
  d.pending <- String.sub s pos (n - pos);
  List.rev acc
