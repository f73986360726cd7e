(* Exact per-request samples (no bucketing, so percentiles carry no
   bucket error): completion time, latency and body bytes, with
   nearest-rank percentiles over them. *)

type t = {
  mutable ends : float array;  (** completion, monotonic seconds *)
  mutable lat : float array;  (** ms *)
  mutable bytes : int array;  (** verified body bytes; -1 for a failure *)
  mutable n : int;
}

let create () =
  { ends = Array.make 65536 0.; lat = Array.make 65536 0.; bytes = Array.make 65536 0; n = 0 }

let grow a n z =
  let b = Array.make (2 * n) z in
  Array.blit a 0 b 0 n;
  b

let add t ~ends ~lat ~bytes =
  if t.n = Array.length t.lat then begin
    t.ends <- grow t.ends t.n 0.;
    t.lat <- grow t.lat t.n 0.;
    t.bytes <- grow t.bytes t.n 0
  end;
  t.ends.(t.n) <- ends;
  t.lat.(t.n) <- lat;
  t.bytes.(t.n) <- bytes;
  t.n <- t.n + 1

let count t = t.n

let merge ts =
  let cat f = Array.concat (List.map (fun t -> Array.sub (f t) 0 t.n) ts) in
  let ends = cat (fun t -> t.ends) in
  { ends; lat = cat (fun t -> t.lat); bytes = cat (fun t -> t.bytes); n = Array.length ends }

(* The samples completing in [[lo, hi)]. *)
let slice t ~lo ~hi =
  let r = create () in
  for i = 0 to t.n - 1 do
    if t.ends.(i) >= lo && t.ends.(i) < hi then
      add r ~ends:t.ends.(i) ~lat:t.lat.(i) ~bytes:t.bytes.(i)
  done;
  r

let verified t =
  let c = ref 0 in
  for i = 0 to t.n - 1 do
    if t.bytes.(i) >= 0 then incr c
  done;
  !c

let body_bytes t =
  let c = ref 0 in
  for i = 0 to t.n - 1 do
    if t.bytes.(i) > 0 then c := !c + t.bytes.(i)
  done;
  !c

(* Nearest-rank percentile of latency: the smallest sample with at least
   [p]% of the samples at or below it.  [nan] when empty. *)
let percentile t p =
  if t.n = 0 then nan
  else begin
    let s = Array.sub t.lat 0 t.n in
    Array.sort Float.compare s;
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int t.n)) in
    s.(max 0 (min (t.n - 1) (rank - 1)))
  end

(* Samples strictly above the [p]th percentile: how many observations
   the percentile rests on. *)
let beyond t p = t.n - int_of_float (Float.ceil (p /. 100. *. float_of_int t.n))

let median_of l =
  let s = Array.of_list l in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.
