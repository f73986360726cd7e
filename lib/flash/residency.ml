(* Chunks are tracked at a fixed granularity independent of the mmap
   cache's chunking so the predictor is self-contained. *)
let granularity = 65536

type key = { inode : int; slot : int }

type t = {
  min_bytes : int;
  max_bytes : int;
  mutable assumed : int;
  believed : (key, unit) Flash_cache.Store.t;  (* LRU by bytes *)
  mutable faults : int;
}

let create ~initial_bytes ~min_bytes ~max_bytes =
  if min_bytes <= 0 || initial_bytes < min_bytes || max_bytes < initial_bytes
  then invalid_arg "Residency.create: need 0 < min <= initial <= max";
  {
    min_bytes;
    max_bytes;
    assumed = initial_bytes;
    believed = Flash_cache.Store.create ~capacity:initial_bytes ();
    faults = 0;
  }

let slots_of file ~off ~len =
  ignore file;
  if len <= 0 then []
  else begin
    let first = off / granularity and last = (off + len - 1) / granularity in
    List.init (last - first + 1) (fun i -> first + i)
  end

let key (file : Simos.Fs.file) slot = { inode = file.Simos.Fs.inode; slot }

let predict_resident t file ~off ~len =
  List.for_all
    (fun slot -> Flash_cache.Store.mem t.believed (key file slot))
    (slots_of file ~off ~len)

let note_access t file ~off ~len =
  List.iter
    (fun slot ->
      let bytes = min granularity (file.Simos.Fs.size - (slot * granularity)) in
      ignore
        (Flash_cache.Store.add t.believed (key file slot) ()
           ~weight:(max 1 bytes)))
    (slots_of file ~off ~len)

let resize t bytes =
  let clamped = min t.max_bytes (max t.min_bytes bytes) in
  t.assumed <- clamped;
  Flash_cache.Store.set_capacity t.believed clamped

let note_fault t file ~off ~len =
  t.faults <- t.faults + 1;
  List.iter
    (fun slot -> ignore (Flash_cache.Store.remove t.believed (key file slot)))
    (slots_of file ~off ~len);
  (* Multiplicative decrease: the cache is smaller than we thought. *)
  resize t (t.assumed * 9 / 10)

let note_correct t =
  (* Additive increase, one page at a time. *)
  if t.assumed < t.max_bytes then resize t (t.assumed + 8192)

let assumed_bytes t = t.assumed
let faults t = t.faults
