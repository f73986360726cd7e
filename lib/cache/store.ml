type ('k, 'v) entry = {
  mutable value : 'v;
  node : 'k Policy.node;  (* the key, the weight, the replacement state *)
  mutable pinned : bool;  (* out of the policy's order: never a victim *)
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
  mutable policy : 'k Policy.impl;
  kind : Policy.kind;
  admission : Policy.admission;
  gate : 'k Policy.gate;
  on_evict : 'k -> 'v -> unit;
  budget : Budget.t option;
  mutable pinned_count : int;
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
let pinned_count t = t.pinned_count

let pinned t key =
  match Hashtbl.find_opt t.table key with Some e -> e.pinned | None -> false

let budget_release t n =
  match t.budget with None -> () | Some b -> Budget.release b n

let tick t =
  t.op <- t.op + 1;
  t.op

(* Drop a resident entry from the table and the policy's order; the
   caller decides counters and hooks.  A pinned entry's weight leaves
   the pinned-bytes figure with it, never leaking past its removal. *)
let drop t entry =
  let node = entry.node in
  Hashtbl.remove t.table node.Policy.key;
  if entry.pinned then begin
    t.pinned_count <- t.pinned_count - 1;
    t.pinned_weight <- t.pinned_weight - node.Policy.weight
  end
  else t.policy.Policy.remove node;
  t.total_weight <- t.total_weight - node.Policy.weight;
  budget_release t node.Policy.weight

let evict_victim t =
  match t.policy.Policy.victim () with
  | None -> false
  | Some { Policy.key; _ } ->
      let entry = Hashtbl.find t.table key in
      drop t entry;
      t.evictions <- t.evictions + 1;
      t.on_evict key entry.value;
      true

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
      pinned_count = 0;
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
      if not entry.pinned then t.policy.Policy.access entry.node;
      Some entry.value
  | Some entry ->
      (* Stale: remove through the evict hook so resource accounting
         (mapped-bytes gauges) cannot drift, and count a miss. *)
      drop t entry;
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
    let node = Policy.node key ~weight in
    Hashtbl.add t.table key
      { value; node; pinned = false; e_hits = 0; e_last = tick t };
    t.total_weight <- t.total_weight + weight;
    t.policy.Policy.insert node;
    budget_charge t weight;
    shrink_to_fit t;
    true
  end

let add ?(evict = false) t key value ~weight =
  if weight < 0 then invalid_arg "Store.add: negative weight";
  match Hashtbl.find_opt t.table key with
  | Some old when evict ->
      drop t old;
      t.on_evict key old.value;
      add_fresh t key value ~weight
  | Some entry ->
      (* Replacement re-weighs and refreshes; already-resident keys
         bypass admission.  History carries over — the new value is the
         same logical object — and the policy ranks the entry at its
         new weight from this touch on. *)
      let node = entry.node in
      let old = node.Policy.weight in
      entry.value <- value;
      entry.e_last <- tick t;
      node.Policy.weight <- weight;
      t.total_weight <- t.total_weight - old + weight;
      if entry.pinned then t.pinned_weight <- t.pinned_weight - old + weight
      else t.policy.Policy.access node;
      budget_release t old;
      budget_charge t weight;
      shrink_to_fit t;
      true
  | None -> add_fresh t key value ~weight

let pin t key =
  match Hashtbl.find_opt t.table key with
  | None -> false
  | Some entry ->
      if not entry.pinned then begin
        t.policy.Policy.remove entry.node;
        entry.pinned <- true;
        t.pinned_count <- t.pinned_count + 1;
        t.pinned_weight <- t.pinned_weight + entry.node.Policy.weight
      end;
      true

let unpin t key =
  match Hashtbl.find_opt t.table key with
  | Some entry when entry.pinned ->
      entry.pinned <- false;
      t.pinned_count <- t.pinned_count - 1;
      t.pinned_weight <- t.pinned_weight - entry.node.Policy.weight;
      t.policy.Policy.insert entry.node;
      (* Back under policy order means back under capacity pressure:
         the release may leave the store over its cap. *)
      shrink_to_fit t;
      true
  | _ -> false

let pinned_keys t =
  Hashtbl.fold (fun k e acc -> if e.pinned then k :: acc else acc) t.table []

let fold_keys t ~init ~f =
  Hashtbl.fold
    (fun key entry acc ->
      f acc key
        {
          ks_hits = entry.e_hits;
          ks_last = entry.e_last;
          ks_weight = entry.node.Policy.weight;
          ks_pinned = entry.pinned;
        })
    t.table init

let rejected_keys t = t.gate.Policy.gate_keys ()

let remove ?(evict = false) t key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some entry ->
      drop t entry;
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
  t.pinned_count <- 0;
  t.pinned_weight <- 0;
  t.policy <- Policy.make t.kind ~capacity:t.cap ();
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
    pinned_entries = t.pinned_count;
    pinned_bytes = t.pinned_weight;
  }
