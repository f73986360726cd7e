(* The lib/cache subsystem: model-based policy checks against naive
   references, admission gates, budget sharing, and deterministic
   hit-rate fixtures separating the policies. *)

module Policy = Flash_cache.Policy
module Store = Flash_cache.Store
module Budget = Flash_cache.Budget

(* ------------------------------------------------------------------ *)
(* Model-based: the store under every policy vs a naive reference      *)
(* ------------------------------------------------------------------ *)

(* Naive references recompute victims by scanning all ordered keys —
   no heaps, no linked lists — so agreement on arbitrary operation
   sequences exercises the real implementations' incremental machinery
   (heap slots, segment demotion, re-weighing) against
   obviously-correct arithmetic. *)
type model = {
  m_insert : int -> int -> unit;  (* key, weight: joins the order *)
  m_access : int -> int -> unit;  (* key, weight: a hit, or a re-weigh *)
  m_remove : int -> unit;
  m_victim : unit -> int option;
}

let naive_lru () =
  (* MRU-first key list. *)
  let order = ref [] in
  {
    m_insert = (fun k _w -> order := k :: !order);
    m_access =
      (fun k _w -> order := k :: List.filter (fun x -> x <> k) !order);
    m_remove = (fun k -> order := List.filter (fun x -> x <> k) !order);
    m_victim =
      (fun () ->
        match List.rev !order with [] -> None | last :: _ -> Some last);
  }

let naive_slru ~capacity () =
  let probation = ref [] and protected_ = ref [] in
  let weights = Hashtbl.create 16 in
  let pcap = capacity / 5 * 4 in
  let weight_of k = Option.value ~default:0 (Hashtbl.find_opt weights k) in
  let pweight () = List.fold_left (fun a k -> a + weight_of k) 0 !protected_ in
  let drop l k = List.filter (fun x -> x <> k) l in
  let rec demote () =
    if pweight () > pcap then
      match List.rev !protected_ with
      | [] -> ()
      | last :: _ ->
          protected_ := drop !protected_ last;
          probation := last :: !probation;
          demote ()
  in
  {
    m_insert =
      (fun k w ->
        Hashtbl.replace weights k w;
        probation := k :: !probation);
    m_access =
      (fun k w ->
        (* A hit promotes from probation or refreshes in protected; a
           protected entry re-weighed past the bound is demoted. *)
        Hashtbl.replace weights k w;
        probation := drop !probation k;
        protected_ := k :: drop !protected_ k;
        demote ());
    m_remove =
      (fun k ->
        probation := drop !probation k;
        protected_ := drop !protected_ k;
        Hashtbl.remove weights k);
    m_victim =
      (fun () ->
        match List.rev !probation with
        | last :: _ -> Some last
        | [] -> (
            match List.rev !protected_ with
            | last :: _ -> Some last
            | [] -> None));
  }

(* Decayed-LFU reference: bump [j] (1-indexed, global) contributes
   [decay^-j], identical to the implementation's growing multiplier but
   never renormalised (the raw multiplier stays finite for about 709 k
   bumps); victims minimise (score, last-bump seq). *)
let naive_lfu () =
  let scores = Hashtbl.create 16 and seqs = Hashtbl.create 16 in
  let n = ref 0 in
  let mult = ref 1.0 in
  let bump k =
    incr n;
    mult := !mult /. 0.999;
    Hashtbl.replace scores k
      (Option.value ~default:0.0 (Hashtbl.find_opt scores k) +. !mult);
    Hashtbl.replace seqs k !n
  in
  let victim () =
    Hashtbl.fold
      (fun k s best ->
        let q = Hashtbl.find seqs k in
        match best with
        | None -> Some (k, s, q)
        | Some (_, bs, bq) when s < bs || (s = bs && q < bq) -> Some (k, s, q)
        | Some _ -> best)
      scores None
    |> Option.map (fun (k, _, _) -> k)
  in
  {
    m_insert = (fun k _w -> bump k);
    m_access = (fun k _w -> bump k);
    m_remove =
      (fun k ->
        Hashtbl.remove scores k;
        Hashtbl.remove seqs k);
    m_victim = victim;
  }

let naive_gdsf () =
  let pris = Hashtbl.create 16
  and seqs = Hashtbl.create 16
  and freqs = Hashtbl.create 16
  and sizes = Hashtbl.create 16 in
  let aging = ref 0.0 in
  let n = ref 0 in
  let rescore k =
    incr n;
    let f = Option.value ~default:0 (Hashtbl.find_opt freqs k) + 1 in
    Hashtbl.replace freqs k f;
    let size = max 1 (Option.value ~default:1 (Hashtbl.find_opt sizes k)) in
    Hashtbl.replace pris k (!aging +. (float_of_int f /. float_of_int size));
    Hashtbl.replace seqs k !n
  in
  let victim () =
    Hashtbl.fold
      (fun k p best ->
        let q = Hashtbl.find seqs k in
        match best with
        | None -> Some (k, p, q)
        | Some (_, bp, bq) when p < bp || (p = bp && q < bq) -> Some (k, p, q)
        | Some _ -> best)
      pris None
    |> Option.map (fun (k, p, _) ->
           aging := p;
           k)
  in
  {
    m_insert =
      (fun k w ->
        Hashtbl.replace sizes k w;
        Hashtbl.remove freqs k;
        rescore k);
    m_access =
      (fun k w ->
        Hashtbl.replace sizes k w;
        rescore k);
    m_remove =
      (fun k ->
        Hashtbl.remove pris k;
        Hashtbl.remove seqs k;
        Hashtbl.remove freqs k;
        Hashtbl.remove sizes k);
    m_victim = victim;
  }

let naive_of kind ~capacity =
  match kind with
  | Policy.Lru -> naive_lru ()
  | Policy.Slru -> naive_slru ~capacity ()
  | Policy.Lfu -> naive_lfu ()
  | Policy.Gdsf -> naive_gdsf ()

(* The store's own rules over a naive policy: resident weights, pins
   kept out of the order, and the capacity walk that keeps one entry. *)
type sim = {
  policy : model;
  capacity : int;
  weights : (int, int) Hashtbl.t;  (* resident key -> weight *)
  pins : (int, unit) Hashtbl.t;
}

let sim kind ~capacity =
  {
    policy = naive_of kind ~capacity;
    capacity;
    weights = Hashtbl.create 16;
    pins = Hashtbl.create 16;
  }

let sim_total m = Hashtbl.fold (fun _ w acc -> acc + w) m.weights 0

let sim_evict m =
  match m.policy.m_victim () with
  | None -> false
  | Some v ->
      Hashtbl.remove m.weights v;
      m.policy.m_remove v;
      true

let sim_shrink m =
  while
    sim_total m > m.capacity && Hashtbl.length m.weights > 1 && sim_evict m
  do
    ()
  done

type op =
  | Add of int * int  (* key, weight: fresh, or a re-weigh if resident *)
  | Find of int
  | Remove of int
  | Pin of int
  | Unpin of int
  | Shed

let op_print = function
  | Add (k, w) -> Printf.sprintf "Add(%d,w%d)" k w
  | Find k -> Printf.sprintf "Find(%d)" k
  | Remove k -> Printf.sprintf "Remove(%d)" k
  | Pin k -> Printf.sprintf "Pin(%d)" k
  | Unpin k -> Printf.sprintf "Unpin(%d)" k
  | Shed -> "Shed"

let sim_apply m = function
  | Add (k, w) ->
      let resident = Hashtbl.mem m.weights k in
      Hashtbl.replace m.weights k w;
      if not resident then m.policy.m_insert k w
      else if not (Hashtbl.mem m.pins k) then m.policy.m_access k w;
      sim_shrink m
  | Find k -> (
      match Hashtbl.find_opt m.weights k with
      | Some w when not (Hashtbl.mem m.pins k) -> m.policy.m_access k w
      | _ -> ())
  | Remove k ->
      if Hashtbl.mem m.weights k then begin
        Hashtbl.remove m.weights k;
        if Hashtbl.mem m.pins k then Hashtbl.remove m.pins k
        else m.policy.m_remove k
      end
  | Pin k ->
      if Hashtbl.mem m.weights k && not (Hashtbl.mem m.pins k) then begin
        m.policy.m_remove k;
        Hashtbl.replace m.pins k ()
      end
  | Unpin k ->
      if Hashtbl.mem m.pins k then begin
        Hashtbl.remove m.pins k;
        m.policy.m_insert k (Hashtbl.find m.weights k);
        sim_shrink m
      end
  | Shed -> ignore (sim_evict m)

let store_apply store = function
  | Add (k, w) -> ignore (Store.add store k () ~weight:w)
  | Find k -> ignore (Store.find store k)
  | Remove k -> ignore (Store.remove store k)
  | Pin k -> ignore (Store.pin store k)
  | Unpin k -> ignore (Store.unpin store k)
  | Shed -> ignore (Store.shed store)

let sorted_keys tbl =
  List.sort compare (Hashtbl.fold (fun k _ l -> k :: l) tbl [])

(* The resident set, its weight and the pinned tier agree with the
   model after [op]. *)
let check_agree store m op =
  let resident =
    List.sort compare (Store.fold_keys store ~init:[] ~f:(fun l k _ -> k :: l))
  in
  let expected = sorted_keys m.weights in
  let show l = String.concat "," (List.map string_of_int l) in
  if resident <> expected then
    failwith
      (Printf.sprintf "after %s: resident {%s}, model {%s}" (op_print op)
         (show resident) (show expected));
  if Store.weight store <> sim_total m then
    failwith
      (Printf.sprintf "after %s: weight %d, model %d" (op_print op)
         (Store.weight store) (sim_total m));
  let pinned = List.sort compare (Store.pinned_keys store) in
  if pinned <> sorted_keys m.pins then
    failwith
      (Printf.sprintf "after %s: pinned {%s}, model {%s}" (op_print op)
         (show pinned)
         (show (sorted_keys m.pins)));
  let pinned_weight =
    Hashtbl.fold (fun k () acc -> acc + Hashtbl.find m.weights k) m.pins 0
  in
  if Store.pinned_bytes store <> pinned_weight then
    failwith
      (Printf.sprintf "after %s: pinned bytes %d, model %d" (op_print op)
         (Store.pinned_bytes store) pinned_weight)

let store_matches_model kind capacity ops =
  let store = Store.create ~policy:kind ~capacity () in
  let m = sim kind ~capacity in
  List.iter
    (fun op ->
      store_apply store op;
      sim_apply m op;
      check_agree store m op)
    ops;
  true

let op_gen =
  QCheck.Gen.(
    let key = int_range 0 11 in
    frequency
      [
        (6, map2 (fun k w -> Add (k, w)) key (int_range 1 9));
        (4, map (fun k -> Find k) key);
        (1, map (fun k -> Remove k) key);
        (1, map (fun k -> Pin k) key);
        (1, map (fun k -> Unpin k) key);
        (1, return Shed);
      ])

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_print ops))
    QCheck.Gen.(list_size (int_range 0 120) op_gen)

let prop_policy kind =
  Helpers.qcheck_case ~count:300
    ~name:(Printf.sprintf "%s matches naive reference" (Policy.name kind))
    ops_arb
    (fun ops -> store_matches_model kind 20 ops)

(* LFU renormalises its scores when the multiplier passes 1e100, about
   every 230 k bumps; the random sequences above never get there.  One
   seeded run of 260 k accesses crosses it once, and every resident set
   before and after agrees with the never renormalised reference.  The
   accesses are Zipf over a window of 25 of 40 keys that slides by one
   every 2,000 accesses, so each key that leaves it decays until a
   newcomer outranks it.  Under a fixed popularity a newcomer's one
   bump never outranks a resident: it is its own victim, and the
   resident set freezes whatever the scores read. *)
let test_lfu_renormalisation () =
  let zipf = Workload.Zipf.create ~n:25 ~alpha:0.8 in
  let rng = Sim.Rng.create ~seed:26 in
  let store = Store.create ~policy:Policy.Lfu ~capacity:20 () in
  let m = sim Policy.Lfu ~capacity:20 in
  for i = 1 to 260_000 do
    let k = (Workload.Zipf.sample zipf rng + (i / 2000)) mod 40 in
    let op = if Store.mem store k then Find k else Add (k, 1) in
    store_apply store op;
    sim_apply m op;
    if Store.length store <> Hashtbl.length m.weights then
      Alcotest.failf "after %s: %d resident, model %d" (op_print op)
        (Store.length store) (Hashtbl.length m.weights);
    Hashtbl.iter
      (fun k _ ->
        if not (Store.mem store k) then
          Alcotest.failf "after %s: %d evicted, model keeps it" (op_print op) k)
      m.weights
  done

(* A resident key re-added at a new weight is ranked at that weight:
   GDSF scores it by its new size, so a shed takes it and not the
   smaller [1]; SLRU recounts it in the protected segment, where it no
   longer fits, so later pressure evicts it and not the newer [1]. *)
let test_reweigh_reranks () =
  ignore
    (store_matches_model Policy.Gdsf 1_000_000
       [ Add (0, 10); Add (1, 1_000); Add (0, 10_000); Shed ]);
  ignore
    (store_matches_model Policy.Slru 100
       [ Add (0, 10); Find 0; Add (0, 85); Add (1, 10); Add (2, 10) ])

(* ------------------------------------------------------------------ *)
(* Store invariants under admit/reject                                 *)
(* ------------------------------------------------------------------ *)

type sop = Sadd of int * int | Sfind of int | Sremove of int

let sop_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun k w -> Sadd (k, w)) (int_range 0 9) (int_range 1 8));
        (3, map (fun k -> Sfind k) (int_range 0 9));
        (1, map (fun k -> Sremove k) (int_range 0 9));
      ])

let sop_print = function
  | Sadd (k, w) -> Printf.sprintf "Add(%d,w%d)" k w
  | Sfind k -> Printf.sprintf "Find(%d)" k
  | Sremove k -> Printf.sprintf "Remove(%d)" k

let sops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map sop_print ops))
    QCheck.Gen.(list_size (int_range 0 80) sop_gen)

(* Weight conservation: the store's weight equals the sum of resident
   weights after every operation, whatever the policy and admission
   gate decide, and admitted + rejected counts every fresh insertion
   attempt. *)
let store_conserves_weight (kind, ops) =
  let store =
    Store.create ~policy:kind ~admission:(Policy.Admit_min_size 3)
      ~capacity:20 ()
  in
  let weights = Hashtbl.create 16 in
  let attempts = ref 0 in
  List.iter
    (fun op ->
      (match op with
      | Sadd (k, w) ->
          let fresh = not (Store.mem store k) in
          if fresh then incr attempts;
          if Store.add store k w ~weight:w then Hashtbl.replace weights k w
      | Sfind k -> ignore (Store.find store k)
      | Sremove k -> ignore (Store.remove store k));
      (* Resync the model with evictions the store performed. *)
      Hashtbl.iter
        (fun k _ -> if not (Store.mem store k) then Hashtbl.remove weights k)
        (Hashtbl.copy weights);
      let expected = Hashtbl.fold (fun _ w acc -> acc + w) weights 0 in
      if Store.weight store <> expected then
        failwith
          (Printf.sprintf "weight %d, resident sum %d" (Store.weight store)
             expected);
      if Store.weight store > Store.capacity store && Store.length store > 1
      then failwith "over capacity with multiple entries")
    ops;
  let s = Store.stats store in
  s.Store.admitted + s.Store.rejected = !attempts

let prop_store_weights =
  Helpers.qcheck_case ~count:300 ~name:"store conserves weight, counts admission"
    (QCheck.make
       ~print:(fun (kind, ops) ->
         Policy.name kind ^ ": "
         ^ String.concat "; " (List.map sop_print ops))
       QCheck.Gen.(
         pair
           (oneofl [ Policy.Lru; Policy.Slru; Policy.Lfu; Policy.Gdsf ])
           (list_size (int_range 0 80) sop_gen)))
    store_conserves_weight

(* ------------------------------------------------------------------ *)
(* Deterministic hit-rate fixtures                                     *)
(* ------------------------------------------------------------------ *)

(* Replay (path, size) requests; returns (hits, byte_hits, total_bytes). *)
let replay policy ~capacity reqs =
  let store = Store.create ~policy ~capacity () in
  let hits = ref 0 and byte_hits = ref 0 and total = ref 0 in
  List.iter
    (fun (key, size) ->
      total := !total + size;
      match Store.find store key with
      | Some () ->
          incr hits;
          byte_hits := !byte_hits + size
      | None -> ignore (Store.add store key () ~weight:size))
    reqs;
  (!hits, !byte_hits, !total)

(* Hot set + one-touch scan stream.  LRU churns: every scan burst pushes
   hot entries out; LFU's frequency ranking keeps the hot set resident. *)
let scan_fixture =
  let hot = List.init 8 (fun i -> (i, 1)) in
  let warmup = List.concat (List.init 5 (fun _ -> hot)) in
  let rounds =
    List.concat
      (List.init 30 (fun r ->
           let scans = List.init 4 (fun j -> (100 + (4 * r) + j, 1)) in
           scans @ hot))
  in
  warmup @ rounds

let test_lfu_beats_lru_on_scans () =
  let lru_hits, _, _ = replay Policy.Lru ~capacity:10 scan_fixture in
  let lfu_hits, _, _ = replay Policy.Lfu ~capacity:10 scan_fixture in
  Alcotest.(check bool)
    (Printf.sprintf "lfu hits (%d) > lru hits (%d)" lfu_hits lru_hits)
    true (lfu_hits > lru_hits);
  (* And the scan stream really does hurt LRU. *)
  Alcotest.(check bool) "scan stream defeats plain LRU" true
    (lru_hits < 30 * 8)

(* Heavy-tailed byte-hit fixture: 50 hot 1 KB files plus a 60 KB
   one-touch scan file per round, 100 KB capacity.  LRU lets each big
   file push out hot entries; GDSF gives the big one-touch file the
   lowest priority (freq 1 / size 60000) and evicts it first, keeping
   the hot set — higher byte hit rate on fewer resident bytes. *)
let heavy_tail_fixture =
  let hot = List.init 50 (fun i -> (i, 1000)) in
  let warmup = List.concat (List.init 2 (fun _ -> hot)) in
  let rounds =
    List.concat (List.init 40 (fun r -> hot @ [ (1000 + r, 60_000) ]))
  in
  warmup @ rounds

let test_gdsf_beats_lru_on_byte_hit_rate () =
  let _, lru_bytes, total = replay Policy.Lru ~capacity:100_000 heavy_tail_fixture in
  let _, gdsf_bytes, _ = replay Policy.Gdsf ~capacity:100_000 heavy_tail_fixture in
  let rate b = float_of_int b /. float_of_int total in
  Alcotest.(check bool)
    (Printf.sprintf "gdsf byte-hit %.3f > lru byte-hit %.3f" (rate gdsf_bytes)
       (rate lru_bytes))
    true
    (gdsf_bytes > lru_bytes)

(* SLRU protects the hot set from the same scan stream. *)
let test_slru_beats_lru_on_scans () =
  let lru_hits, _, _ = replay Policy.Lru ~capacity:10 scan_fixture in
  let slru_hits, _, _ = replay Policy.Slru ~capacity:10 scan_fixture in
  Alcotest.(check bool)
    (Printf.sprintf "slru hits (%d) > lru hits (%d)" slru_hits lru_hits)
    true (slru_hits > lru_hits)

(* The live file cache's default replacement policy, on the traffic
   shape of perfbench's cold_miss: 6,000 files of 2-26 KB, requested
   Zipf 0.8 by rank, through a 32 MB cache, each entry weighing its
   body and about 1 KB of headers.  The files weigh three times the
   cache, so about a third of LRU's answers are misses.  GDSF keeps
   more of the small popular files and must hit at least 0.05 more of
   300 k seeded requests than LRU (0.775 against 0.699 here); the live
   server's default, and so perfbench's replay, must be it. *)
let cold_miss_trace () =
  let n = 6000 in
  let rng = Sim.Rng.create ~seed:29 in
  let weights =
    Array.init n (fun _ -> 2048 + Sim.Rng.int rng ((24 * 1024) + 1) + 1024)
  in
  let zipf = Workload.Zipf.create ~n ~alpha:0.8 in
  List.init 300_000 (fun _ ->
      let k = Workload.Zipf.sample zipf rng in
      (k, weights.(k)))

let test_default_policy_on_cold_miss () =
  let trace = cold_miss_trace () in
  let hit_ratio policy =
    let hits, _, _ = replay policy ~capacity:(32 * 1024 * 1024) trace in
    float_of_int hits /. float_of_int (List.length trace)
  in
  let lru = hit_ratio Policy.Lru and gdsf = hit_ratio Policy.Gdsf in
  Printf.printf "cold_miss shape: lru %.3f, gdsf %.3f\n" lru gdsf;
  Alcotest.(check bool)
    (Printf.sprintf "gdsf hit ratio %.3f >= lru's %.3f + 0.05" gdsf lru)
    true
    (gdsf >= lru +. 0.05);
  let module File_cache = Flash_live.File_cache in
  Alcotest.(check string)
    "the file cache's default" "gdsf"
    (Policy.name File_cache.default_policy);
  Alcotest.(check string)
    "File_cache.create's policy" "gdsf"
    (File_cache.stats (File_cache.create ~capacity_bytes:1 ()))
      .Flash_cache.Store.policy;
  Alcotest.(check string)
    "Server.default_config's policy" "gdsf"
    (Policy.name
       (Flash_live.Server.default_config ~docroot:".")
         .Flash_live.Server.cache_policy)

(* ------------------------------------------------------------------ *)
(* Admission gates                                                     *)
(* ------------------------------------------------------------------ *)

let test_min_size_admission () =
  let store =
    Store.create ~admission:(Policy.Admit_min_size 10) ~capacity:100 ()
  in
  Alcotest.(check bool) "small rejected" false (Store.add store 1 () ~weight:5);
  Alcotest.(check bool) "large admitted" true (Store.add store 2 () ~weight:10);
  let s = Store.stats store in
  Alcotest.(check int) "rejected count" 1 s.Store.rejected;
  Alcotest.(check int) "admitted count" 1 s.Store.admitted;
  Alcotest.(check int) "only the big entry resident" 10 (Store.weight store)

let test_freq_admission_doorkeeper () =
  (* p = 0: first-timers always rejected; the doorkeeper remembers the
     rejection, so the second attempt admits. *)
  let store = Store.create ~admission:(Policy.Admit_freq 0.0) ~capacity:100 () in
  Alcotest.(check bool) "first attempt rejected" false
    (Store.add store 1 () ~weight:1);
  Alcotest.(check bool) "second attempt admitted" true
    (Store.add store 1 () ~weight:1);
  (* p = 1: everything admitted outright. *)
  let store = Store.create ~admission:(Policy.Admit_freq 1.0) ~capacity:100 () in
  Alcotest.(check bool) "p=1 admits first-timers" true
    (Store.add store 2 () ~weight:1)

let test_replacement_bypasses_admission () =
  let store = Store.create ~admission:(Policy.Admit_freq 0.0) ~capacity:100 () in
  ignore (Store.add store 1 () ~weight:1);
  ignore (Store.add store 1 () ~weight:1);
  (* Resident: replacing re-weighs without consulting the gate. *)
  Alcotest.(check bool) "replacement admitted" true
    (Store.add store 1 () ~weight:7);
  Alcotest.(check int) "re-weighed" 7 (Store.weight store)

(* ------------------------------------------------------------------ *)
(* Budget sharing                                                      *)
(* ------------------------------------------------------------------ *)

let test_budget_sheds_largest () =
  let budget = Budget.create ~bytes:100 in
  let a = Store.create ~budget ~name:"a" ~capacity:1000 () in
  let b = Store.create ~budget ~name:"b" ~capacity:1000 () in
  ignore (Store.add a "x" () ~weight:70);
  Alcotest.(check int) "pool charged" 70 (Budget.used budget);
  (* B's insertion overflows the shared pool; the budget sheds from the
     largest member (A), even though A is under its own capacity — and
     even though it empties A. *)
  ignore (Store.add b "y" () ~weight:60);
  Alcotest.(check bool) "pool back within budget" true
    (Budget.used budget <= 100);
  Alcotest.(check int) "A shed its entry" 0 (Store.weight a);
  Alcotest.(check int) "B kept its entry" 60 (Store.weight b);
  Alcotest.(check int) "shed counts as eviction" 1 (Store.evictions a)

let test_budget_clear_releases () =
  let budget = Budget.create ~bytes:100 in
  let a = Store.create ~budget ~capacity:1000 () in
  ignore (Store.add a 1 () ~weight:40);
  ignore (Store.add a 2 () ~weight:40);
  Store.clear a;
  Alcotest.(check int) "clear releases the pool" 0 (Budget.used budget)

(* ------------------------------------------------------------------ *)
(* Parsing and validation                                              *)
(* ------------------------------------------------------------------ *)

let test_of_string () =
  List.iter
    (fun kind ->
      match Policy.of_string (Policy.name kind) with
      | Ok k -> Alcotest.(check bool) "round-trips" true (k = kind)
      | Error e -> Alcotest.fail e)
    Policy.all;
  let contains msg name =
    let n = String.length name and m = String.length msg in
    let rec go i = i + n <= m && (String.sub msg i n = name || go (i + 1)) in
    go 0
  in
  (match Policy.of_string "bogus" with
  | Ok _ -> Alcotest.fail "accepted bogus policy"
  | Error msg ->
      Alcotest.(check bool) "error lists valid names" true
        (List.for_all (fun k -> contains msg (Policy.name k)) Policy.all));
  match Policy.admission_of_string "nope" with
  | Ok _ -> Alcotest.fail "accepted bogus admission"
  | Error _ -> ()

let test_admission_of_string () =
  (match Policy.admission_of_string "always" with
  | Ok Policy.Admit_always -> ()
  | _ -> Alcotest.fail "always");
  (match Policy.admission_of_string "size:4096" with
  | Ok (Policy.Admit_min_size 4096) -> ()
  | _ -> Alcotest.fail "size:4096");
  (match Policy.admission_of_string "freq" with
  | Ok (Policy.Admit_freq p) ->
      Alcotest.(check (float 1e-9)) "default prob" 0.1 p
  | _ -> Alcotest.fail "freq");
  match Policy.admission_of_string "freq:1.5" with
  | Ok _ -> Alcotest.fail "accepted out-of-range probability"
  | Error _ -> ()

let test_store_rejects_bad_args () =
  (match Store.create ~capacity:0 () with
  | _ -> Alcotest.fail "accepted zero capacity"
  | exception Invalid_argument _ -> ());
  let store = Store.create ~capacity:10 () in
  match Store.add store 1 () ~weight:(-1) with
  | _ -> Alcotest.fail "accepted negative weight"
  | exception Invalid_argument _ -> ()

(* Oversized single entry admitted alone — the seed LRU contract. *)
let test_oversized_entry_admitted_alone () =
  List.iter
    (fun policy ->
      let store = Store.create ~policy ~capacity:10 () in
      ignore (Store.add store 1 () ~weight:50);
      Alcotest.(check int)
        (Policy.name policy ^ ": oversized entry resident")
        1 (Store.length store);
      (* A second entry forces the oversized one out: every policy ranks
         the cold oversized entry as the victim. *)
      ignore (Store.add store 2 () ~weight:5);
      Alcotest.(check int)
        (Policy.name policy ^ ": oversized entry evicted")
        5 (Store.weight store))
    Policy.all

(* The score-ranked policies' heap must hold each resident node once:
   a record per access would grow with the request count.  After 200 k
   Zipf accesses through a store that holds about a third of 6,000
   keys, everything the store keeps must stay within a constant number
   of words per resident entry. *)
let test_heap_bounded kind () =
  let zipf = Workload.Zipf.create ~n:6000 ~alpha:0.8 in
  let rng = Sim.Rng.create ~seed:25 in
  let store =
    Store.create ~policy:kind ~name:"bounded" ~capacity:32_000_000 ()
  in
  let weight k = 2048 + (k * 7919 mod 24_577) in
  for _ = 1 to 200_000 do
    let k = Workload.Zipf.sample zipf rng in
    match Store.find store k with
    | Some () -> ()
    | None -> ignore (Store.add store k () ~weight:(weight k))
  done;
  let per_entry =
    Obj.reachable_words (Obj.repr store) / Store.length store
  in
  Printf.printf "%s: %d entries, %d words per entry\n" (Policy.name kind)
    (Store.length store) per_entry;
  if per_entry > 100 then
    Alcotest.failf "%s keeps %d words per resident entry" (Policy.name kind)
      per_entry

let suite =
  [
    prop_policy Policy.Lru;
    prop_policy Policy.Slru;
    prop_policy Policy.Lfu;
    prop_policy Policy.Gdsf;
    Alcotest.test_case "LFU agrees across its renormalisation" `Quick
      test_lfu_renormalisation;
    Alcotest.test_case "re-weighed entry ranked at its new weight" `Quick
      test_reweigh_reranks;
    prop_store_weights;
    Alcotest.test_case "LFU keeps hot set under scans" `Quick
      test_lfu_beats_lru_on_scans;
    Alcotest.test_case "SLRU keeps hot set under scans" `Quick
      test_slru_beats_lru_on_scans;
    Alcotest.test_case "GDSF beats LRU byte-hit on heavy tail" `Quick
      test_gdsf_beats_lru_on_byte_hit_rate;
    Alcotest.test_case "GDSF, the default, hits more on cold_miss's shape"
      `Quick test_default_policy_on_cold_miss;
    Alcotest.test_case "min-size admission" `Quick test_min_size_admission;
    Alcotest.test_case "freq admission doorkeeper" `Quick
      test_freq_admission_doorkeeper;
    Alcotest.test_case "replacement bypasses admission" `Quick
      test_replacement_bypasses_admission;
    Alcotest.test_case "budget sheds largest member" `Quick
      test_budget_sheds_largest;
    Alcotest.test_case "budget released on clear" `Quick
      test_budget_clear_releases;
    Alcotest.test_case "policy of_string" `Quick test_of_string;
    Alcotest.test_case "admission of_string" `Quick test_admission_of_string;
    Alcotest.test_case "store argument validation" `Quick
      test_store_rejects_bad_args;
    Alcotest.test_case "oversized entry admitted alone" `Quick
      test_oversized_entry_admitted_alone;
    Alcotest.test_case "GDSF heap bounded by live keys" `Quick
      (test_heap_bounded Policy.Gdsf);
    Alcotest.test_case "LFU heap bounded by live keys" `Quick
      (test_heap_bounded Policy.Lfu);
  ]
