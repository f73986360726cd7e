(* A body outside the GC (a read copy or a mapping) and its lease
   count.  Fresh at 0; each holder (the cache, a queued slice, the code
   building or serving an entry) adds one.  The release that ends the
   last lease moves the count to [dead] with a CAS, frees or unmaps the
   memory and empties the entry's windows into it, so that happens once
   even when MT workers or a foreign shard's budget shed release
   concurrently.  A read copy is one block: the entry's four headers,
   then the body.  A mapping's four headers share one buffer of their
   own, freed with it. *)
type lease = {
  buf : Iovec.bigstring;  (* the block, or the mapping *)
  leases : int Atomic.t;
  mapping : bool;
  mutable headers : Iovec.bigstring;  (* a mapping's header buffer *)
  mutable entry : entry option;  (* whose five windows end with it *)
}

and entry = {
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

let dead = min_int / 2
let no_buffer = Iovec.create 0

let acquire l =
  if Atomic.fetch_and_add l.leases 1 < 0 then
    invalid_arg "File_cache.acquire: body already released"

(* Windows read empty once their memory is gone; a window that is the
   buffer itself is already empty by then, and emptying it again is
   harmless. *)
let release l =
  if
    Atomic.fetch_and_add l.leases (-1) = 1
    && Atomic.compare_and_set l.leases 0 dead
  then begin
    if l.mapping then Iovec.unmap l.buf else Iovec.free l.buf;
    if l.headers != no_buffer then Iovec.free l.headers;
    match l.entry with
    | Some e ->
        Iovec.empty e.body;
        Iovec.empty e.header_keep;
        Iovec.empty e.header_close;
        Iovec.empty e.header_304_keep;
        Iovec.empty e.header_304_close
    | None -> ()
  end

let is_mapping l = l.mapping

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

let default_policy = Flash_cache.Policy.Gdsf

let create ?(policy = default_policy) ?admission ?budget
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
  (* The cache's lease is taken before [add]: an entry shed inside it
     (own capacity or the shared budget) goes through [on_evict] and
     must not end a lease it never had.  An entry already under [key]
     leaves through the hook too ([~evict]), so its mapping is
     uncharged, and a key not cached is looked up once. *)
  Option.iter acquire entry.mapped;
  if
    Flash_cache.Store.add ~evict:true t.store key entry
      ~weight:(entry_weight entry)
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

let leased ~mapping buf =
  { buf; leases = Atomic.make 0; mapping; headers = no_buffer; entry = None }

(* A read copy made with [head] bytes before its body: the body is the
   window past them. *)
let block ~head buf =
  let l = leased ~mapping:false buf in
  if head = 0 then (buf, Some l)
  else (Bigarray.Array1.sub buf head (Bigarray.Array1.dim buf - head), Some l)

let map_body ?(max_copy = max_int) ?(head = 0) fd ~size =
  if size <= 0 then
    if head = 0 then (Iovec.create 0, None) else block ~head (Iovec.alloc head)
  else if size <= copy_limit then block ~head (Iovec.read ~head fd size)
  else
    match Iovec.map fd size with
    | buf -> (buf, Some (leased ~mapping:true buf))
    | exception (Unix.Unix_error _ | Failure _) when size <= max_copy ->
        block ~head (Iovec.read ~head fd size)

let map_resident ?(head = 0) ~trust_mincore fd ~size =
  if size <= 0 then Some (map_body ~head fd ~size)
  else if size <= copy_limit then
    match Iovec.read_cached ~trust_mincore ~head fd size with
    | Some buf -> Some (block ~head buf)
    | None -> None
    | exception Unix.Unix_error _ -> None
  else if not trust_mincore then None
  else
    match Iovec.map fd size with
    | exception (Unix.Unix_error _ | Failure _) -> None
    | buf when not (Iovec.resident buf) ->
        Iovec.unmap buf;
        None
    | buf -> Some (buf, Some (leased ~mapping:true buf))

let make_entry ~body ~lease ~(headers : Http.Response.cached) ~mtime ~size
    ~etag ~encoding =
  let text = headers.Http.Response.text in
  let n = String.length text in
  (* The headers go into the block's head when it was read with room
     for them, else into a buffer of their own that the lease frees. *)
  let lease, area =
    match lease with
    | Some { entry = Some _; _ } ->
        invalid_arg "File_cache.make_entry: body already has an entry"
    | Some l
      when (not l.mapping)
           && Bigarray.Array1.dim l.buf - Bigarray.Array1.dim body >= n ->
        (l, l.buf)
    | Some l ->
        let area = Iovec.alloc n in
        l.headers <- area;
        (l, area)
    | None ->
        let area = Iovec.alloc n in
        (leased ~mapping:false area, area)
  in
  Iovec.blit_string text 0 area 0 n;
  let view off len = Bigarray.Array1.sub area off len in
  let { Http.Response.ok_keep; ok_close; not_modified_keep; _ } = headers in
  let header_keep = view 0 ok_keep
  and header_close = view ok_keep ok_close
  and header_304_keep = view (ok_keep + ok_close) not_modified_keep
  and header_304_close =
    view
      (ok_keep + ok_close + not_modified_keep)
      headers.Http.Response.not_modified_close
  in
  let entry =
    {
      body;
      mapped = Some lease;
      mtime;
      size;
      etag;
      encoding;
      header_keep;
      header_close;
      header_304_keep;
      header_304_close;
    }
  in
  lease.entry <- Some entry;
  entry

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
