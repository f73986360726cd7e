(* Seed-derived file bodies.  Every docroot file is a window onto one
   pseudo-random pattern of [period] bytes, starting at a per-file
   offset, so the verifier can re-derive any body or byte range without
   holding the docroot in memory.  The period is prime and not a power
   of two: a response that skips or repeats a 64 KB chunk lands on
   different pattern bytes and fails the comparison. *)

let period = 65521

type t = { pattern : string  (* the period, stored twice *) }

let create ~seed =
  let st = Random.State.make [| seed; 0x5eed |] in
  let once = String.init period (fun _ -> Char.chr (Random.State.int st 256)) in
  { pattern = once ^ once }

(* Pattern position of byte [off] of a file whose window starts at
   [start]. *)
let pos ~start off = (start + off) mod period

external bytes_get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external string_get64u : string -> int -> int64 = "%caml_string_get64u"

(* Does [buf.[boff .. boff+len)] equal bytes [off .. off+len) of the
   file starting at [start]?  Compared eight bytes at a time, one
   pattern run (at most [period] bytes, contiguous in the doubled
   pattern) per step.  The reads are unchecked: the range is checked
   once below, and a run never passes the end of the doubled pattern.
   This is most of the generator's work on large bodies, and the checked,
   boxed reads made it ten times slower than a copy. *)
let equal t ~start ~off buf ~boff ~len =
  let same boff p n =
    let i = ref 0 and ok = ref true in
    while !ok && !i + 8 <= n do
      if bytes_get64u buf (boff + !i) <> string_get64u t.pattern (p + !i) then ok := false;
      i := !i + 8
    done;
    while !ok && !i < n do
      if Bytes.unsafe_get buf (boff + !i) <> String.unsafe_get t.pattern (p + !i) then ok := false;
      incr i
    done;
    !ok
  in
  let rec runs off boff len =
    len = 0
    ||
    let n = min len period in
    same boff (pos ~start off) n && runs (off + n) (boff + n) (len - n)
  in
  len >= 0 && boff >= 0 && boff + len <= Bytes.length buf && runs off boff len

(* Write the first [size] bytes of the file starting at [start]. *)
let write_file t ~start ~size path =
  let oc = open_out_bin path in
  let rec go off =
    if off < size then begin
      let n = min (size - off) period in
      output_substring oc t.pattern (pos ~start off) n;
      go (off + n)
    end
  in
  go 0;
  close_out oc

(* The expected bytes as a string (tests and fixtures). *)
let sub t ~start ~off ~len =
  String.init len (fun i -> t.pattern.[pos ~start (off + i)])
