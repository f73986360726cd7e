type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type slice = { buf : bigstring; mutable off : int; mutable len : int }

external stub_writev : Unix.file_descr -> slice array -> int -> int
  = "flash_iovec_writev"

external map : Unix.file_descr -> int -> bigstring = "flash_iovec_map"
external unmap : bigstring -> unit = "flash_iovec_unmap"
external resident : bigstring -> bool = "flash_iovec_resident"
external of_string : string -> bigstring = "flash_iovec_of_string"
external read : Unix.file_descr -> int -> bigstring = "flash_iovec_read"

external read_cached :
  trust_mincore:bool -> Unix.file_descr -> int -> bigstring option
  = "flash_iovec_read_cached"

external free : bigstring -> unit = "flash_iovec_free"

let max_iovecs = 64

let create n = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n

let sub_string buf ~off ~len =
  if off < 0 || len < 0 || off + len > Bigarray.Array1.dim buf then
    invalid_arg "Iovec.sub_string";
  String.init len (fun i -> Bigarray.Array1.unsafe_get buf (off + i))

let slice ?(off = 0) ?len buf =
  let dim = Bigarray.Array1.dim buf in
  let len = match len with Some l -> l | None -> dim - off in
  if off < 0 || len < 0 || off + len > dim then invalid_arg "Iovec.slice";
  { buf; off; len }

let total_length slices =
  Array.fold_left (fun acc s -> acc + s.len) 0 slices

let advance slices n =
  if n < 0 then invalid_arg "Iovec.advance: negative count";
  let left = ref n in
  Array.iter
    (fun s ->
      if !left > 0 then begin
        let take = min s.len !left in
        s.off <- s.off + take;
        s.len <- s.len - take;
        left := !left - take
      end)
    slices;
  if !left > 0 then invalid_arg "Iovec.advance: count exceeds slices"

let writev fd slices =
  let n = Array.length slices in
  if n = 0 then 0 else stub_writev fd slices (min n max_iovecs)
