(* A body outside the GC (a read copy or a mapping) and its lease
   count.  Fresh at 0; each holder (the cache, a queued body slice, the
   code building or serving an entry) adds one.  The release that ends
   the last lease moves the count to [dead] with a CAS and frees or
   unmaps, so that happens once even when MT workers or a foreign
   shard's budget shed release concurrently. *)
type lease = { buf : Iovec.bigstring; leases : int Atomic.t; mapping : bool }

let dead = min_int / 2

let acquire l =
  if Atomic.fetch_and_add l.leases 1 < 0 then
    invalid_arg "File_cache.acquire: body already released"

let release l =
  if
    Atomic.fetch_and_add l.leases (-1) = 1
    && Atomic.compare_and_set l.leases 0 dead
  then if l.mapping then Iovec.unmap l.buf else Iovec.free l.buf

let is_mapping l = l.mapping

type entry = {
  body : Iovec.bigstring;
  mapped : lease option;
  mtime : float;
  size : int;
  etag : string;
  encoding : string option;
  header_keep : Iovec.bigstring;
  header_close : Iovec.bigstring;
  header_304_keep : Iovec.bigstring;
  header_304_close : Iovec.bigstring;
}

let body_length entry = Bigarray.Array1.dim entry.body

type t = {
  store : (string, entry) Flash_cache.Store.t;
  mapped : Obs.Gauge.t;  (* file bytes currently mapped via entries *)
  (* Origin path -> variant keys living beside it in the store, so a
     variant can never outlive (or outfreshen) its origin. *)
  variants : (string, string list) Hashtbl.t;
  (* Variant keys whose origin was just evicted.  The evict hook runs
     inside store operations where re-entrant removal would corrupt the
     policy state, so it only queues; every public operation flushes. *)
  mutable pending_drop : string list;
}

(* Variant keys embed the encoding after a NUL — impossible in a
   request path, so variants and origins share one namespace, one
   policy, and one budget. *)
let variant_key path ~encoding = path ^ "\x00" ^ encoding

let origin_of_key key =
  match String.index_opt key '\x00' with
  | None -> None
  | Some i -> Some (String.sub key 0 i)

let create ?(policy = Flash_cache.Policy.Lru) ?admission ?budget
    ~capacity_bytes () =
  let mapped = Obs.Gauge.create () in
  let variants = Hashtbl.create 16 in
  let t_ref = ref None in
  let on_evict key (entry : entry) =
    (match entry.mapped with
    | Some l ->
        if l.mapping then Obs.Gauge.add mapped (-(body_length entry));
        release l
    | None -> ());
    match !t_ref with
    | None -> ()
    | Some t -> (
        match origin_of_key key with
        | Some origin ->
            (* A variant died: forget it under its origin. *)
            (match Hashtbl.find_opt variants origin with
            | Some keys ->
                Hashtbl.replace variants origin
                  (List.filter (fun k -> not (String.equal k key)) keys)
            | None -> ())
        | None -> (
            (* An origin died: queue its variants for removal. *)
            match Hashtbl.find_opt variants key with
            | Some keys ->
                Hashtbl.remove variants key;
                t.pending_drop <- keys @ t.pending_drop
            | None -> ()))
  in
  let t =
    {
      store =
        Flash_cache.Store.create ~policy ?admission ?budget ~name:"file"
          ~on_evict
          ~capacity:(max 1 capacity_bytes) ();
      mapped;
      variants;
      pending_drop = [];
    }
  in
  t_ref := Some t;
  t

(* Drop variants orphaned by an origin eviction.  Each removal goes
   through the evict hook (uncharging its mapping) and may queue
   nothing further — variants have no variants — so this terminates. *)
let flush_pending t =
  let rec loop () =
    match t.pending_drop with
    | [] -> ()
    | key :: rest ->
        t.pending_drop <- rest;
        ignore (Flash_cache.Store.remove ~evict:true t.store key);
        loop ()
  in
  loop ()

let validate ~mtime ~size (entry : entry) =
  entry.mtime = mtime && entry.size = size

let find t path ~mtime ~size =
  let r =
    Flash_cache.Store.find_validated t.store path ~validate:(validate ~mtime ~size)
  in
  flush_pending t;
  r

let find_trusted t path = Flash_cache.Store.find t.store path

(* A variant hit requires the *origin's* validators to still hold: the
   variant entry carries them, so a same-second rewrite of the origin
   invalidates every representation at once. *)
let find_variant t path ~encoding ~mtime ~size =
  let r =
    Flash_cache.Store.find_validated t.store (variant_key path ~encoding)
      ~validate:(validate ~mtime ~size)
  in
  flush_pending t;
  r

let entry_weight entry =
  body_length entry
  + Bigarray.Array1.dim entry.header_keep
  + Bigarray.Array1.dim entry.header_close
  + Bigarray.Array1.dim entry.header_304_keep
  + Bigarray.Array1.dim entry.header_304_close

let insert_keyed t key (entry : entry) =
  (* Replacement would bypass [on_evict]; drop the old entry through the
     hook first so its mapping is uncharged. *)
  ignore (Flash_cache.Store.remove ~evict:true t.store key);
  (* The cache's lease is taken before [add]: an entry shed inside it
     (own capacity or the shared budget) goes through [on_evict] and
     must not end a lease it never had. *)
  Option.iter acquire entry.mapped;
  if Flash_cache.Store.add t.store key entry ~weight:(entry_weight entry)
  then begin
    match entry.mapped with
    | Some l when l.mapping -> Obs.Gauge.add t.mapped (body_length entry)
    | Some _ | None -> ()
  end
  else Option.iter release entry.mapped;
  flush_pending t

let insert t path (entry : entry) = insert_keyed t path entry

let insert_variant t path ~encoding (entry : entry) =
  let key = variant_key path ~encoding in
  insert_keyed t key entry;
  (* Register only if admitted (rejection serves without caching). *)
  if Flash_cache.Store.mem t.store key then begin
    let existing = Option.value ~default:[] (Hashtbl.find_opt t.variants path) in
    if not (List.mem key existing) then
      Hashtbl.replace t.variants path (key :: existing)
  end

let remove t path =
  ignore (Flash_cache.Store.remove ~evict:true t.store path);
  flush_pending t

let clear t =
  let keys = ref [] in
  Flash_cache.Store.iter t.store ~f:(fun k _ -> keys := k :: !keys);
  List.iter (remove t) !keys

let copy_limit = 65_536

let leased ~mapping buf = (buf, Some { buf; leases = Atomic.make 0; mapping })

let map_body ?(max_copy = max_int) fd ~size =
  if size <= 0 then (Iovec.create 0, None)
  else if size <= copy_limit then leased ~mapping:false (Iovec.read fd size)
  else
    match Iovec.map fd size with
    | buf -> leased ~mapping:true buf
    | exception (Unix.Unix_error _ | Failure _) when size <= max_copy ->
        leased ~mapping:false (Iovec.read fd size)

let map_resident ~trust_mincore fd ~size =
  if size <= 0 then Some (Iovec.create 0, None)
  else if size <= copy_limit then
    match Iovec.read_cached ~trust_mincore fd size with
    | Some buf -> Some (leased ~mapping:false buf)
    | None -> None
    | exception Unix.Unix_error _ -> None
  else if not trust_mincore then None
  else
    match Iovec.map fd size with
    | exception (Unix.Unix_error _ | Failure _) -> None
    | buf when not (Iovec.resident buf) ->
        Iovec.unmap buf;
        None
    | buf -> Some (leased ~mapping:true buf)

let trusts_mincore ~owner ~euid = owner = euid || euid = 0

(* Pinned hot tier: pinning is by origin path; variants stay under
   normal replacement (they are re-derivable from the pinned origin). *)
let pin t path = Flash_cache.Store.pin t.store path
let unpin t path = Flash_cache.Store.unpin t.store path

let pinned t path = Flash_cache.Store.pinned t.store path
let pinned_bytes t = Flash_cache.Store.pinned_bytes t.store
let pinned_count t = Flash_cache.Store.pinned_count t.store
let pinned_paths t = Flash_cache.Store.pinned_keys t.store
let resident t path = Flash_cache.Store.mem t.store path

let is_variant_key key = String.contains key '\x00'

(* Warming inputs: per-path demand stats and doorkeeper rejections.
   Variant keys are skipped — a variant cannot be prefetched directly,
   and its demand already shows on the origin. *)
let fold_paths t ~init ~f =
  Flash_cache.Store.fold_keys t.store ~init ~f:(fun acc key ks ->
      if is_variant_key key then acc else f acc key ks)

let rejected_paths t =
  List.filter
    (fun k -> not (is_variant_key k))
    (Flash_cache.Store.rejected_keys t.store)

let bytes t = Flash_cache.Store.weight t.store
let entries t = Flash_cache.Store.length t.store
let mapped_bytes t = Obs.Gauge.value t.mapped
let hits t = Flash_cache.Store.hits t.store
let misses t = Flash_cache.Store.misses t.store
let evictions t = Flash_cache.Store.evictions t.store
let stats t = Flash_cache.Store.stats t.store
