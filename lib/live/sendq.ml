(* A ring of slice records the queue owns: a push copies the window
   into the next free record, so queueing a response allocates nothing,
   and a popped record is emptied and reused.  [leases.(i)] is the
   lease the slice in [slices.(i)] holds, if any. *)
type t = {
  mutable slices : Iovec.slice array;
  mutable leases : File_cache.lease option array;
  mutable head : int;
  mutable count : int;
  (* The gather array each writev reuses: as long as the ring, up to
     [Iovec.max_iovecs]. *)
  mutable iov : Iovec.slice array;
  mutable wrote_all : bool;
}

let no_buf = Iovec.create 0
let fresh _ = { Iovec.buf = no_buf; off = 0; len = 0 }
let initial = 4

let create () =
  {
    slices = Array.init initial fresh;
    leases = Array.make initial None;
    head = 0;
    count = 0;
    iov = Array.make initial (fresh ());
    wrote_all = true;
  }

let is_empty t = t.count = 0
let slot t i = (t.head + i) mod Array.length t.slices

let grow t =
  let cap = Array.length t.slices in
  let slices = Array.init (2 * cap) fresh
  and leases = Array.make (2 * cap) None in
  for i = 0 to t.count - 1 do
    slices.(i) <- t.slices.(slot t i);
    leases.(i) <- t.leases.(slot t i)
  done;
  t.slices <- slices;
  t.leases <- leases;
  t.head <- 0;
  if Array.length t.iov < Iovec.max_iovecs then
    t.iov <- Array.make (Int.min (2 * cap) Iovec.max_iovecs) t.iov.(0)

let push_buffer t buf ~off ~len lease =
  if off < 0 || len < 0 || off + len > Bigarray.Array1.dim buf then
    invalid_arg "Sendq.push_buffer";
  if len > 0 then begin
    (match lease with Some m -> File_cache.acquire m | None -> ());
    if t.count = Array.length t.slices then grow t;
    let i = slot t t.count in
    let s = t.slices.(i) in
    s.Iovec.buf <- buf;
    s.Iovec.off <- off;
    s.Iovec.len <- len;
    t.leases.(i) <- lease;
    t.count <- t.count + 1
  end

let push_body t (s : Iovec.slice) lease =
  push_buffer t s.Iovec.buf ~off:s.Iovec.off ~len:s.Iovec.len lease

let push_slice t s = push_body t s None

(* The body slice goes in right behind the header and holds the lease
   until after the header has left the queue, so the header needs none
   of its own. *)
let push_entry t (e : File_cache.entry) ~header ~body =
  let hlen = Bigarray.Array1.dim header
  and blen = Bigarray.Array1.dim e.File_cache.body in
  if body && blen > 0 then begin
    push_buffer t header ~off:0 ~len:hlen None;
    push_buffer t e.File_cache.body ~off:0 ~len:blen e.File_cache.mapped
  end
  else push_buffer t header ~off:0 ~len:hlen e.File_cache.mapped

let push_string t s =
  let n = String.length s in
  if n > 0 then push_buffer t (Iovec.of_string s) ~off:0 ~len:n None;
  n

(* The leading slices into [iov]; their count. *)
let fill t =
  let k = Int.min t.count Iovec.max_iovecs in
  for i = 0 to k - 1 do
    t.iov.(i) <- t.slices.(slot t i)
  done;
  k

let gather t = Array.sub t.iov 0 (fill t)

(* Pop the head slice; a body slice's lease ends with it. *)
let pop_slice t =
  let i = t.head in
  (match t.leases.(i) with
  | Some m ->
      t.leases.(i) <- None;
      File_cache.release m
  | None -> ());
  t.slices.(i).Iovec.buf <- no_buf;
  t.head <- slot t 1;
  t.count <- t.count - 1

let advance t n =
  let left = ref n in
  while !left > 0 do
    if t.count = 0 then
      invalid_arg "Sendq.advance: count exceeds gathered slices";
    let s = t.slices.(t.head) in
    let take = Int.min s.Iovec.len !left in
    s.Iovec.off <- s.Iovec.off + take;
    s.Iovec.len <- s.Iovec.len - take;
    left := !left - take;
    if s.Iovec.len = 0 then pop_slice t
  done;
  (* Drop any slices emptied exactly at the boundary. *)
  while t.count > 0 && t.slices.(t.head).Iovec.len = 0 do
    pop_slice t
  done

let writev t fd =
  let k = fill t in
  let total = ref 0 in
  for i = 0 to k - 1 do
    total := !total + t.iov.(i).Iovec.len
  done;
  let n = Iovec.writev_prefix fd t.iov k in
  t.wrote_all <- n = !total;
  advance t n;
  n

let wrote_all t = t.wrote_all

let clear t =
  while t.count > 0 do
    pop_slice t
  done;
  t.head <- 0
