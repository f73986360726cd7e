(* The three workloads: which files the docroot holds and the seeded
   request stream the generator sends.  Everything derives from the
   seed; the server sees only the files and the requests. *)

type name = Hot_small | Cold_miss | Bulk

let names = [ ("hot_small", Hot_small); ("cold_miss", Cold_miss); ("bulk", Bulk) ]

let to_string n = fst (List.find (fun (_, m) -> m = n) names)
let of_string s = List.assoc_opt s names

type file = {
  path : string;  (** URL path, also the docroot-relative file name *)
  size : int;
  start : int;  (** window start in the {!Content} pattern *)
}

type kind =
  | Get  (** plain GET, expect 200 and the whole body *)
  | If_none_match  (** GET with the learned ETag, expect 304 *)
  | Range of int * int  (** [off, len]: single range, expect 206 *)

type request = { file : int; kind : kind }

type t = {
  name : name;
  seed : int;
  files : file array;
  zipf_cdf : float array;  (** popularity by file index *)
}

let kib = 1024
let mib = 1024 * 1024

(* Sizes in bytes: uniform for the small sets, log-uniform for bulk.
   Bulk keeps every file at or under flash_serve's 4 MB
   [max_cached_file]: larger files take the streamed path, which
   truncates responses at this commit, and the listed workloads are
   ones on which no request fails. *)
let file_sizes name st =
  let uniform n lo hi = Array.init n (fun _ -> lo + Random.State.int st (hi - lo + 1)) in
  let log_uniform n lo hi =
    Array.init n (fun _ ->
        int_of_float (exp (log lo +. Random.State.float st (log hi -. log lo))))
  in
  match name with
  | Hot_small -> uniform 1000 (1 * kib) (16 * kib)
  | Cold_miss -> uniform 6000 (2 * kib) (26 * kib)
  | Bulk ->
      (* A total under the 32 MB cache, so bulk measures sending, not
         eviction; redraw (deterministically) until it fits. *)
      let rec draw () =
        let a = log_uniform 24 (float_of_int (256 * kib)) (float_of_int (4 * mib)) in
        if Array.fold_left ( + ) 0 a <= 28 * mib then a else draw ()
      in
      draw ()

let zipf_alpha = function
  | Hot_small -> 1.0
  | Cold_miss -> 0.8
  | Bulk -> 0.0  (* uniform over the few dozen files *)

(* File [i] is the [i]th most popular.  Its size comes from a
   seed-independent draw, so the size-popularity profile, and with it
   bytes per request and the share of the working set that fits the
   cache, is part of the workload's definition rather than a per-seed
   accident; the seed picks the file names, the contents and the
   request sequence. *)
let create name ~seed =
  let sizes = file_sizes name (Random.State.make [| Hashtbl.hash (to_string name) |]) in
  let st = Random.State.make [| seed; Hashtbl.hash (to_string name) |] in
  let n = Array.length sizes in
  let names = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = names.(i) in
    names.(i) <- names.(j);
    names.(j) <- tmp
  done;
  let files =
    Array.mapi
      (fun i size ->
        {
          path = Printf.sprintf "/f%05d.bin" names.(i);
          size;
          start = Random.State.int st Content.period;
        })
      sizes
  in
  let alpha = zipf_alpha name in
  let weights = Array.init n (fun r -> 1. /. (float_of_int (r + 1) ** alpha)) in
  let total = Array.fold_left ( +. ) 0. weights in
  let acc = ref 0. in
  let zipf_cdf =
    Array.map
      (fun w ->
        acc := !acc +. (w /. total);
        !acc)
      weights
  in
  { name; seed; files; zipf_cdf }

(* The generator's CPU per request on the reference host, a 2-vCPU VM
   in its faster phase.  Rates and times are reported as they would be
   at that speed (see flashbench.ml); the value only scales them. *)
let reference_client_us = function Hot_small -> 16. | Cold_miss -> 18. | Bulk -> 400.

let write_docroot t content dir =
  Array.iter
    (fun f ->
      Content.write_file content ~start:f.start ~size:f.size
        (Filename.concat dir (String.sub f.path 1 (String.length f.path - 1))))
    t.files

(* A request stream: one per generator thread, each its own PRNG
   derived from the seed and the thread index, so a run's inputs are
   fixed by the seed. *)
type stream = { w : t; st : Random.State.t }

let stream t ~index = { w = t; st = Random.State.make [| t.seed; index; 0x57 |] }

let pick_file s =
  let u = Random.State.float s.st 1. in
  let cdf = s.w.zipf_cdf in
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) < u then search (mid + 1) hi else search lo mid
  in
  search 0 (Array.length cdf - 1)

let next s =
  let file = pick_file s in
  let kind =
    match s.w.name with
    | Cold_miss | Bulk -> Get
    | Hot_small ->
        let u = Random.State.int s.st 100 in
        if u < 70 then Get
        else if u < 90 then If_none_match
        else
          let size = s.w.files.(file).size in
          let off = Random.State.int s.st (size / 2) in
          let len = 1 + Random.State.int s.st (size - off - 1) in
          Range (off, len)
  in
  { file; kind }

let request_line ?etag t r =
  let f = t.files.(r.file) in
  match r.kind with
  | Get -> Printf.sprintf "GET %s HTTP/1.1\r\nHost: bench\r\n\r\n" f.path
  | If_none_match ->
      Printf.sprintf "GET %s HTTP/1.1\r\nHost: bench\r\nIf-None-Match: %s\r\n\r\n"
        f.path
        (match etag with Some e -> e | None -> "\"none\"")
  | Range (off, len) ->
      Printf.sprintf "GET %s HTTP/1.1\r\nHost: bench\r\nRange: bytes=%d-%d\r\n\r\n"
        f.path off (off + len - 1)
