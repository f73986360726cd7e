type ('k, 'v) entry = {
  value : 'v;
  weight : int;
  (* Per-key access history for the predictive warmer: hit count and a
     logical last-access stamp (the store's own op counter, so the
     record stays deterministic and dependency-free — the miner maps
     stamps to recency with its injected clock). *)
  mutable e_hits : int;
  mutable e_last : int;
}

type stats = {
  name : string;
  policy : string;
  admission : string;
  capacity : int;
  entries : int;
  resident : int;
  hits : int;
  misses : int;
  evictions : int;
  admitted : int;
  rejected : int;
  pinned_entries : int;
  pinned_bytes : int;
}

type key_stat = { ks_hits : int; ks_last : int; ks_weight : int; ks_pinned : bool }

type ('k, 'v) t = {
  sname : string;
  table : ('k, ('k, 'v) entry) Hashtbl.t;
  policy : 'k Policy.impl;
  kind : Policy.kind;
  admission : Policy.admission;
  gate : 'k Policy.gate;
  on_evict : 'k -> 'v -> unit;
  budget : Budget.t option;
  (* Pinned keys live in the table (and keep their weight/budget
     charges) but not in the policy's order, so the victim walk can
     never name them.  key -> pinned weight. *)
  pinned_set : ('k, int) Hashtbl.t;
  mutable pinned_weight : int;
  mutable cap : int;
  mutable total_weight : int;
  mutable op : int;  (* logical clock: bumps on every hit/insert *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable admitted : int;
  mutable rejected : int;
}

let length t = Hashtbl.length t.table
let weight t = t.total_weight
let capacity t = t.cap
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let pinned_bytes t = t.pinned_weight
let pinned_count t = Hashtbl.length t.pinned_set
let pinned t key = Hashtbl.mem t.pinned_set key

let budget_release t n =
  match t.budget with None -> () | Some b -> Budget.release b n

let tick t =
  t.op <- t.op + 1;
  t.op

(* Drop [key] from every structure; the caller decides counters and
   hooks.  A pinned key is unpinned first — the pinned-bytes figure
   must shrink with the entry, never leak past its removal. *)
let drop t key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some entry ->
      Hashtbl.remove t.table key;
      (match Hashtbl.find_opt t.pinned_set key with
      | Some w ->
          Hashtbl.remove t.pinned_set key;
          t.pinned_weight <- t.pinned_weight - w
      | None -> t.policy.Policy.remove key);
      t.total_weight <- t.total_weight - entry.weight;
      budget_release t entry.weight;
      Some entry

let evict_victim t =
  match t.policy.Policy.victim () with
  | None -> false
  | Some key -> (
      match drop t key with
      | None ->
          (* Policy tracked a key the table lost: inconsistent state,
             treat as nothing to evict rather than loop. *)
          false
      | Some entry ->
          t.evictions <- t.evictions + 1;
          t.on_evict key entry.value;
          true)

(* A store whose every entry is pinned refuses to shed; the budget's
   rebalance falls through to the next member. *)
let shed = evict_victim

(* Keep at least one entry under own-capacity pressure: an oversized
   single entry is admitted alone, matching the seed LRU.  Pinned
   entries never count as evictable, so a hot tier wider than the
   unpinned remainder simply stops the walk. *)
let shrink_to_fit t =
  while t.total_weight > t.cap && Hashtbl.length t.table > 1 && evict_victim t
  do
    ()
  done

let create ?(policy = Policy.Lru) ?(admission = Policy.Admit_always)
    ?(on_evict = fun _ _ -> ()) ?budget ?(name = "cache") ~capacity () =
  if capacity <= 0 then invalid_arg "Store.create: capacity <= 0";
  let t =
    {
      sname = name;
      table = Hashtbl.create 256;
      policy = Policy.make policy ~capacity ();
      kind = policy;
      admission;
      gate = Policy.make_gate admission ();
      on_evict;
      budget;
      pinned_set = Hashtbl.create 16;
      pinned_weight = 0;
      cap = capacity;
      total_weight = 0;
      op = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
      admitted = 0;
      rejected = 0;
    }
  in
  (match budget with
  | None -> ()
  | Some b ->
      Budget.register b
        ~usage:(fun () -> t.total_weight)
        ~shed:(fun () -> shed t));
  t

let find_validated t key ~validate =
  match Hashtbl.find_opt t.table key with
  | None ->
      t.misses <- t.misses + 1;
      None
  | Some entry when validate entry.value ->
      t.hits <- t.hits + 1;
      entry.e_hits <- entry.e_hits + 1;
      entry.e_last <- tick t;
      (* Most stores pin nothing: skip that probe of the key then. *)
      if Hashtbl.length t.pinned_set = 0 || not (Hashtbl.mem t.pinned_set key)
      then t.policy.Policy.access key;
      Some entry.value
  | Some entry ->
      (* Stale: remove through the evict hook so resource accounting
         (mapped-bytes gauges) cannot drift, and count a miss. *)
      ignore (drop t key);
      t.on_evict key entry.value;
      t.misses <- t.misses + 1;
      None

let find t key = find_validated t key ~validate:(fun _ -> true)

let peek t key =
  Option.map (fun e -> e.value) (Hashtbl.find_opt t.table key)

let mem t key = Hashtbl.mem t.table key

let budget_charge t n =
  match t.budget with None -> () | Some b -> Budget.charge b n

(* A key known to be absent: admission, then the table ([Hashtbl.add]
   searches nothing) and the policy. *)
let add_fresh t key value ~weight =
  if not (t.gate.Policy.admit key ~weight) then begin
    (* The doorkeeper remembers rejected keys, so a key rejected as a
       first-timer is admitted on its next miss. *)
    t.gate.Policy.note_miss key;
    t.rejected <- t.rejected + 1;
    false
  end
  else begin
    t.admitted <- t.admitted + 1;
    Hashtbl.add t.table key { value; weight; e_hits = 0; e_last = tick t };
    t.total_weight <- t.total_weight + weight;
    t.policy.Policy.insert key ~weight;
    budget_charge t weight;
    shrink_to_fit t;
    true
  end

let add ?(evict = false) t key value ~weight =
  if weight < 0 then invalid_arg "Store.add: negative weight";
  match Hashtbl.find_opt t.table key with
  | Some old when evict ->
      ignore (drop t key);
      t.on_evict key old.value;
      add_fresh t key value ~weight
  | Some old ->
      (* Replacement re-weighs and refreshes; already-resident keys
         bypass admission.  History carries over — the new value is the
         same logical object. *)
      Hashtbl.replace t.table key
        { value; weight; e_hits = old.e_hits; e_last = tick t };
      t.total_weight <- t.total_weight - old.weight + weight;
      (match Hashtbl.find_opt t.pinned_set key with
      | Some _ ->
          Hashtbl.replace t.pinned_set key weight;
          t.pinned_weight <- t.pinned_weight - old.weight + weight
      | None -> t.policy.Policy.access key);
      budget_release t old.weight;
      budget_charge t weight;
      shrink_to_fit t;
      true
  | None -> add_fresh t key value ~weight

let pin t key =
  match Hashtbl.find_opt t.table key with
  | None -> false
  | Some entry ->
      if not (Hashtbl.mem t.pinned_set key) then begin
        t.policy.Policy.remove key;
        Hashtbl.replace t.pinned_set key entry.weight;
        t.pinned_weight <- t.pinned_weight + entry.weight
      end;
      true

let unpin t key =
  match Hashtbl.find_opt t.pinned_set key with
  | None -> false
  | Some w ->
      Hashtbl.remove t.pinned_set key;
      t.pinned_weight <- t.pinned_weight - w;
      (match Hashtbl.find_opt t.table key with
      | Some entry ->
          t.policy.Policy.insert key ~weight:entry.weight;
          (* Back under policy order means back under capacity
             pressure: the release may leave the store over its cap. *)
          shrink_to_fit t
      | None -> ());
      true

let pinned_keys t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.pinned_set []

let fold_keys t ~init ~f =
  Hashtbl.fold
    (fun key entry acc ->
      f acc key
        {
          ks_hits = entry.e_hits;
          ks_last = entry.e_last;
          ks_weight = entry.weight;
          ks_pinned = Hashtbl.mem t.pinned_set key;
        })
    t.table init

let rejected_keys t = t.gate.Policy.gate_keys ()

let remove ?(evict = false) t key =
  match drop t key with
  | None -> None
  | Some entry ->
      if evict then t.on_evict key entry.value;
      Some entry.value

let set_capacity t cap =
  if cap <= 0 then invalid_arg "Store.set_capacity: capacity <= 0";
  t.cap <- cap;
  t.policy.Policy.resize cap;
  shrink_to_fit t

let iter t ~f = Hashtbl.iter (fun k e -> f k e.value) t.table

let clear t =
  budget_release t t.total_weight;
  Hashtbl.reset t.table;
  Hashtbl.reset t.pinned_set;
  t.pinned_weight <- 0;
  t.policy.Policy.clear ();
  t.gate.Policy.gate_clear ();
  t.total_weight <- 0

let stats t : stats =
  {
    name = t.sname;
    policy = Policy.name t.kind;
    admission = Policy.admission_name t.admission;
    capacity = t.cap;
    entries = Hashtbl.length t.table;
    resident = t.total_weight;
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    admitted = t.admitted;
    rejected = t.rejected;
    pinned_entries = Hashtbl.length t.pinned_set;
    pinned_bytes = t.pinned_weight;
  }
