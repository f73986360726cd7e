(* The cache store under its default LRU policy.  A model-based property
   test: the store must agree with a naive reference implementation on
   arbitrary operation sequences, checked after every operation.
   [Resize] is the residency predictor's [set_capacity]. *)

module Store = Flash_cache.Store

type op = Add of int * int | Find of int | Remove of int | Resize of int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun k w -> Add (k, w)) (int_range 0 9) (int_range 1 5));
        (3, map (fun k -> Find k) (int_range 0 9));
        (1, map (fun k -> Remove k) (int_range 0 9));
        (1, map (fun c -> Resize c) (int_range 1 15));
      ])

let op_print = function
  | Add (k, w) -> Printf.sprintf "Add(%d,w%d)" k w
  | Find k -> Printf.sprintf "Find(%d)" k
  | Remove k -> Printf.sprintf "Remove(%d)" k
  | Resize c -> Printf.sprintf "Resize(%d)" c

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_print ops))
    QCheck.Gen.(list_size (int_range 0 60) op_gen)

(* Reference: association list in MRU-to-LRU order with weights. *)
module Reference = struct
  type t = {
    mutable cap : int;
    mutable entries : (int * int) list;  (* key, weight *)
  }

  let create cap = { cap; entries = [] }
  let weight t = List.fold_left (fun acc (_, w) -> acc + w) 0 t.entries

  let shrink t =
    (* Evict from the LRU end while over capacity with > 1 entry. *)
    let rec drop_last = function
      | [] | [ _ ] -> []
      | x :: rest -> x :: drop_last rest
    in
    while weight t > t.cap && List.length t.entries > 1 do
      t.entries <- drop_last t.entries
    done

  let add t k w =
    t.entries <- (k, w) :: List.remove_assoc k t.entries;
    shrink t

  let find t k =
    match List.assoc_opt k t.entries with
    | Some w ->
        t.entries <- (k, w) :: List.remove_assoc k t.entries;
        true
    | None -> false

  let remove t k =
    let present = List.mem_assoc k t.entries in
    t.entries <- List.remove_assoc k t.entries;
    present

  let resize t cap =
    t.cap <- cap;
    shrink t

  let keys t = List.sort compare (List.map fst t.entries)
end

let agree_after cap ops =
  let store = Store.create ~capacity:cap () in
  let reference = Reference.create cap in
  List.for_all
    (fun op ->
      let agree =
        match op with
        | Add (k, w) ->
            Reference.add reference k w;
            Store.add store k k ~weight:w
        | Find k -> Store.find store k <> None = Reference.find reference k
        | Remove k ->
            Store.remove store k <> None = Reference.remove reference k
        | Resize c ->
            Store.set_capacity store c;
            Reference.resize reference c;
            true
      in
      let keys =
        List.sort compare
          (Store.fold_keys store ~init:[] ~f:(fun acc k _ -> k :: acc))
      in
      agree
      && keys = Reference.keys reference
      && Store.weight store = Reference.weight reference)
    ops

let prop_model cap =
  Helpers.qcheck_case ~count:300
    ~name:(Printf.sprintf "LRU store matches reference model (cap %d)" cap)
    ops_arb
    (fun ops -> agree_after cap ops)

(* Deterministic cases for what the model does not see: the order in
   which the evict hook fires, lookups that must not promote, and
   explicit removal with and without the hook. *)

let test_eviction_order () =
  let evicted = ref [] in
  let store =
    Store.create ~on_evict:(fun k _ -> evicted := k :: !evicted) ~capacity:2 ()
  in
  ignore (Store.add store "a" 1 ~weight:1);
  ignore (Store.add store "b" 2 ~weight:1);
  ignore (Store.add store "c" 3 ~weight:1);
  Alcotest.(check (list string)) "a evicted first" [ "a" ] !evicted;
  (* Touch b, then insert d: c is now least recent. *)
  ignore (Store.find store "b");
  ignore (Store.add store "d" 4 ~weight:1);
  Alcotest.(check (list string)) "c evicted second" [ "c"; "a" ] !evicted;
  Alcotest.(check bool) "b survives" true (Store.mem store "b");
  Alcotest.(check int) "two capacity evictions" 2 (Store.evictions store)

let test_peek_does_not_promote () =
  let store = Store.create ~capacity:2 () in
  ignore (Store.add store "a" 1 ~weight:1);
  ignore (Store.add store "b" 2 ~weight:1);
  Alcotest.(check (option int)) "peek sees a" (Some 1) (Store.peek store "a");
  Alcotest.(check int) "peek counts no hit" 0 (Store.hits store);
  ignore (Store.add store "c" 3 ~weight:1);
  Alcotest.(check bool) "a evicted despite peek" false (Store.mem store "a")

let test_remove () =
  let gauge = ref 0 in
  let store =
    Store.create ~on_evict:(fun _ v -> gauge := !gauge - v) ~capacity:10 ()
  in
  ignore (Store.add store "a" 7 ~weight:2);
  ignore (Store.add store "b" 5 ~weight:3);
  gauge := 12;
  Alcotest.(check (option int)) "removed value" (Some 7)
    (Store.remove store "a");
  Alcotest.(check int) "plain remove runs no hook" 12 !gauge;
  Alcotest.(check int) "weight released" 3 (Store.weight store);
  Alcotest.(check (option int)) "evict-removed value" (Some 5)
    (Store.remove ~evict:true store "b");
  Alcotest.(check int) "~evict runs the hook" 7 !gauge;
  Alcotest.(check (option int)) "remove missing" None
    (Store.remove ~evict:true store "b");
  Alcotest.(check int) "no hook for a missing key" 7 !gauge;
  Alcotest.(check int) "removal is no eviction" 0 (Store.evictions store)

let test_replace_reweighs () =
  let store = Store.create ~capacity:10 () in
  ignore (Store.add store "k" 1 ~weight:4);
  ignore (Store.add store "k" 2 ~weight:6);
  Alcotest.(check int) "weight replaced" 6 (Store.weight store);
  Alcotest.(check (option int)) "value replaced" (Some 2) (Store.find store "k");
  Alcotest.(check int) "single entry" 1 (Store.length store)

let test_clear () =
  let store = Store.create ~capacity:5 () in
  ignore (Store.add store "a" 1 ~weight:1);
  Store.clear store;
  Alcotest.(check int) "empty" 0 (Store.length store);
  Alcotest.(check int) "no weight" 0 (Store.weight store);
  ignore (Store.add store "b" 2 ~weight:1);
  Alcotest.(check bool) "usable after clear" true (Store.mem store "b")

let suite =
  [
    prop_model 5;
    prop_model 12;
    prop_model 1;
    Alcotest.test_case "eviction order" `Quick test_eviction_order;
    Alcotest.test_case "peek does not promote" `Quick test_peek_does_not_promote;
    Alcotest.test_case "remove" `Quick test_remove;
    Alcotest.test_case "replace re-weighs" `Quick test_replace_reweighs;
    Alcotest.test_case "clear" `Quick test_clear;
  ]
