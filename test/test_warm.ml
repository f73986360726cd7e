(* The predictive-warming subsystem: Store pinning (hot tier), the
   access-history miner, the helper pool's low-priority prefetch lane,
   and the live server warming end to end from a recorded access log.

   Runs late in the suite: the budget-conservation property spawns
   OCaml domains, which forbids Unix.fork afterwards, so every MP
   (fork) test must already have run. *)

module Store = Flash_cache.Store
module Budget = Flash_cache.Budget
module Miner = Flash_warm.Miner
module Warm = Flash_warm.Warm

(* ------------------------------------------------------------------ *)
(* Store pinning                                                       *)
(* ------------------------------------------------------------------ *)

let test_pin_survives_pressure () =
  let store = Store.create ~name:"pin" ~capacity:100 () in
  ignore (Store.add store "a" () ~weight:40);
  ignore (Store.add store "b" () ~weight:40);
  Alcotest.(check bool) "pin resident" true (Store.pin store "a");
  Alcotest.(check bool) "pin missing" false (Store.pin store "zz");
  Alcotest.(check int) "pinned bytes" 40 (Store.pinned_bytes store);
  (* Capacity pressure must walk past the pinned entry: only [b] is
     evictable. *)
  ignore (Store.add store "c" () ~weight:40);
  Alcotest.(check bool) "pinned survives" true (Store.mem store "a");
  Alcotest.(check bool) "unpinned evicted" false (Store.mem store "b");
  (* Pinned weight still counts against capacity. *)
  Alcotest.(check int) "weight includes pinned" 80 (Store.weight store);
  (* Unpin rejoins replacement order; pressure can now take [a]. *)
  Alcotest.(check bool) "unpin" true (Store.unpin store "a");
  Alcotest.(check int) "no pinned bytes" 0 (Store.pinned_bytes store);
  ignore (Store.add store "d" () ~weight:40);
  ignore (Store.add store "e" () ~weight:40);
  Alcotest.(check bool) "unpinned a evictable" false (Store.mem store "a")

let test_all_pinned_refuses_shed () =
  let store = Store.create ~name:"allpin" ~capacity:100 () in
  ignore (Store.add store "a" () ~weight:30);
  ignore (Store.add store "b" () ~weight:30);
  ignore (Store.pin store "a");
  ignore (Store.pin store "b");
  Alcotest.(check bool) "shed refused when all pinned" false
    (Store.shed store);
  Alcotest.(check bool) "both resident" true
    (Store.mem store "a" && Store.mem store "b");
  ignore (Store.unpin store "b");
  Alcotest.(check bool) "shed takes the unpinned one" true (Store.shed store);
  Alcotest.(check bool) "pinned still resident" true (Store.mem store "a")

(* Satellite regression: removing a pinned entry must unpin it first,
   so the pinned-bytes gauge can never leak. *)
let test_remove_pinned_unpins_first () =
  let store = Store.create ~name:"rmpin" ~capacity:100 () in
  ignore (Store.add store "a" () ~weight:40);
  ignore (Store.pin store "a");
  Alcotest.(check int) "pinned before remove" 40 (Store.pinned_bytes store);
  ignore (Store.remove store "a");
  Alcotest.(check int) "pinned bytes zero after remove" 0
    (Store.pinned_bytes store);
  Alcotest.(check int) "pinned count zero after remove" 0
    (Store.pinned_count store);
  Alcotest.(check bool) "gone" false (Store.mem store "a");
  (* Same through the evicting remove (the invalidation path). *)
  ignore (Store.add store "b" () ~weight:40);
  ignore (Store.pin store "b");
  ignore (Store.remove ~evict:true store "b");
  Alcotest.(check int) "pinned bytes zero after evicting remove" 0
    (Store.pinned_bytes store);
  (* And the key is re-addable and evictable as if never pinned. *)
  ignore (Store.add store "a" () ~weight:60);
  ignore (Store.add store "c" () ~weight:60);
  Alcotest.(check bool) "re-added key under normal replacement" false
    (Store.mem store "a")

let test_pin_idempotent_and_stats () =
  let store = Store.create ~name:"pinstats" ~capacity:100 () in
  ignore (Store.add store "a" () ~weight:10);
  Alcotest.(check bool) "first pin" true (Store.pin store "a");
  Alcotest.(check bool) "second pin idempotent" true (Store.pin store "a");
  Alcotest.(check int) "no double charge" 10 (Store.pinned_bytes store);
  let s = Store.stats store in
  Alcotest.(check int) "stats pinned entries" 1 s.Store.pinned_entries;
  Alcotest.(check int) "stats pinned bytes" 10 s.Store.pinned_bytes;
  Alcotest.(check (list string)) "pinned keys" [ "a" ]
    (Store.pinned_keys store);
  Alcotest.(check bool) "unpin unknown" false (Store.unpin store "zz")

(* Property (a): a pinned key can never be named victim while pinned.
   Random op soup over a small store; after every operation, every key
   we believe pinned must still be resident. *)
let qcheck_pinned_never_victim =
  let open QCheck in
  let op_gen =
    Gen.(
      frequency
        [
          (4, map2 (fun k w -> `Add (k, 1 + w)) (int_bound 9) (int_bound 30));
          (2, map (fun k -> `Access k) (int_bound 9));
          (2, map (fun k -> `Pin k) (int_bound 9));
          (1, map (fun k -> `Unpin k) (int_bound 9));
          (2, return `Shed);
        ])
  in
  Helpers.qcheck_case ~name:"pinned entries are never victims" ~count:300
    (QCheck.make
       ~print:(fun l -> Printf.sprintf "%d ops" (List.length l))
       Gen.(list_size (int_range 0 120) op_gen))
    (fun ops ->
      let store = Store.create ~name:"prop" ~capacity:60 () in
      let pinned = Hashtbl.create 8 in
      let key k = "k" ^ string_of_int k in
      List.for_all
        (fun op ->
          (match op with
          | `Add (k, w) ->
              (* Inserting over a pinned key keeps the pin; bound the
                 pinned weight so the store can always make progress. *)
              if Hashtbl.length pinned < 3 || Hashtbl.mem pinned (key k) then
                ignore (Store.add store (key k) () ~weight:w)
          | `Access k -> ignore (Store.find store (key k))
          | `Pin k ->
              if Store.pin store (key k) then
                Hashtbl.replace pinned (key k) ()
          | `Unpin k ->
              if Store.unpin store (key k) then Hashtbl.remove pinned (key k)
          | `Shed -> ignore (Store.shed store));
          Hashtbl.fold
            (fun k () acc -> acc && Store.mem store k && Store.pinned store k)
            pinned true)
        ops)

(* Property (b): the shared budget conserves bytes exactly while two
   domains mutate their own stores — one holding a pinned hot tier that
   refuses to shed — through one shared lock (the live server's
   cache-lock discipline).  Afterwards [Budget.used] must equal the sum
   of resident weights, and a final rebalance must fit the pool unless
   everything left is pinned. *)
let qcheck_budget_conservation_with_pins =
  let open QCheck in
  let op_gen =
    Gen.(
      frequency
        [
          (5, map2 (fun k w -> `Add (k, 1 + w)) (int_bound 19) (int_bound 40));
          (2, map (fun k -> `Pin k) (int_bound 19));
          (1, map (fun k -> `Unpin k) (int_bound 19));
          (1, map (fun k -> `Remove k) (int_bound 19));
        ])
  in
  Helpers.qcheck_case ~name:"budget conserved across domains with a pinned member"
    ~count:30
    (QCheck.make
       ~print:(fun (a, b) ->
         Printf.sprintf "%d+%d ops" (List.length a) (List.length b))
       Gen.(
         pair
           (list_size (int_range 1 60) op_gen)
           (list_size (int_range 1 60) op_gen)))
    (fun (ops1, ops2) ->
      let budget = Budget.create ~bytes:400 in
      let lock = Mutex.create () in
      let run name pin_allowed ops =
        let store = Store.create ~name ~budget ~capacity:300 () in
        let apply op =
          Mutex.lock lock;
          Fun.protect
            ~finally:(fun () -> Mutex.unlock lock)
            (fun () ->
              match op with
              | `Add (k, w) ->
                  ignore (Store.add store (string_of_int k) () ~weight:w)
              | `Pin k ->
                  (* Keep the hot tier well under the pool so shedding
                     can always fall through to unpinned weight. *)
                  if pin_allowed && Store.pinned_bytes store < 100 then
                    ignore (Store.pin store (string_of_int k))
              | `Unpin k -> ignore (Store.unpin store (string_of_int k))
              | `Remove k -> ignore (Store.remove store (string_of_int k)))
        in
        (store, fun () -> List.iter apply ops)
      in
      let s1, run1 = run "warm-member" true ops1 in
      let s2, run2 = run "cold-member" false ops2 in
      let d = Domain.spawn run2 in
      run1 ();
      Domain.join d;
      Mutex.lock lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock lock)
        (fun () ->
          let sum = Store.weight s1 + Store.weight s2 in
          if Budget.used budget <> sum then
            Test.fail_reportf "budget used %d <> resident %d"
              (Budget.used budget) sum;
          Budget.rebalance budget;
          let unpinned =
            Store.weight s1 - Store.pinned_bytes s1
            + (Store.weight s2 - Store.pinned_bytes s2)
          in
          if Budget.used budget > Budget.capacity budget && unpinned > 0 then
            Test.fail_reportf
              "rebalance left %d used over capacity %d with %d unpinned"
              (Budget.used budget) (Budget.capacity budget) unpinned;
          true))

(* ------------------------------------------------------------------ *)
(* Miner                                                               *)
(* ------------------------------------------------------------------ *)

let test_miner_decay_prefers_recent () =
  let m = Miner.create ~half_life:10. () in
  (* Four hits at t=0 decay to ~0.004 contributions by t=100; one fresh
     hit outranks them. *)
  for _ = 1 to 4 do
    Miner.observe m ~now:0. ~bytes:100 "/old"
  done;
  Miner.observe m ~now:100. ~bytes:100 "/fresh";
  match Miner.rank m ~now:100. ~top_k:10 ~budget_bytes:1000 with
  | { c_path = "/fresh"; _ } :: { c_path = "/old"; _ } :: _ -> ()
  | l ->
      Alcotest.failf "expected /fresh first, got [%s]"
        (String.concat ";" (List.map (fun c -> c.Miner.c_path) l))

let test_miner_size_aware () =
  let m = Miner.create () in
  Miner.observe m ~now:0. ~bytes:100 "/small";
  Miner.observe m ~now:0. ~bytes:10_000 "/big";
  match Miner.rank m ~now:0. ~top_k:10 ~budget_bytes:100_000 with
  | { c_path = "/small"; _ } :: { c_path = "/big"; _ } :: _ -> ()
  | _ -> Alcotest.fail "equal demand must rank the smaller object first"

let test_miner_budget_cut () =
  let m = Miner.create () in
  (* Scores: /a > /b > /c (by hit count); sizes 200, 200, 50.  With a
     250-byte budget the second candidate does not fit but the third
     does — the cut skips, it does not stop. *)
  for _ = 1 to 3 do
    Miner.observe m ~now:0. ~bytes:200 "/a"
  done;
  Miner.observe m ~now:0. ~bytes:200 "/b";
  Miner.observe m ~now:0. ~bytes:50 "/c";
  Miner.observe m ~now:0. ~bytes:50 "/c";
  (* score: /a = 3/200, /c = 2/50 = 0.04, /b = 1/200 — order c, a, b *)
  let picked =
    Miner.rank m ~now:0. ~top_k:10 ~budget_bytes:250
    |> List.map (fun c -> c.Miner.c_path)
  in
  Alcotest.(check (list string)) "budget skips what does not fit"
    [ "/c"; "/a" ] picked;
  let top1 =
    Miner.rank m ~now:0. ~top_k:1 ~budget_bytes:250
    |> List.map (fun c -> c.Miner.c_path)
  in
  Alcotest.(check (list string)) "top_k bounds the count" [ "/c" ] top1

let test_miner_dead_entries_pruned () =
  let m = Miner.create ~half_life:1. () in
  Miner.observe m ~now:0. ~bytes:10 "/ephemeral";
  Alcotest.(check int) "tracked" 1 (Miner.tracked m);
  (* After ~40 half-lives the contribution is ~1e-12, far below noise. *)
  Alcotest.(check int) "dead entry drops from ranking" 0
    (List.length (Miner.rank m ~now:40. ~top_k:10 ~budget_bytes:1000));
  Alcotest.(check int) "and from the table" 0 (Miner.tracked m)

let test_observe_line () =
  let m = Miner.create () in
  (* Machine-minable line: the resolved path field wins over the quoted
     target. *)
  Alcotest.(check bool) "mineable with path" true
    (Miner.observe_line m ~now:0.
       {|127.0.0.1 - - [08/Aug/2026:10:00:00 +0000] "GET /a.html HTTP/1.1" 200 512 /docroot/a.html|});
  (* Timing suffix after the path is tolerated. *)
  Alcotest.(check bool) "mineable with path and timing" true
    (Miner.observe_line m ~now:0.
       {|127.0.0.1 - - [08/Aug/2026:10:00:00 +0000] "GET /a.html HTTP/1.1" 200 512 /docroot/a.html 1234|});
  (* Plain CLF falls back to the request target. *)
  Alcotest.(check bool) "plain CLF mines the target" true
    (Miner.observe_line m ~now:0.
       {|10.0.0.1 - - [08/Aug/2026:10:00:01 +0000] "GET /b.html HTTP/1.0" 200 300|});
  (* Errors and junk are not demand. *)
  Alcotest.(check bool) "404 not mineable" false
    (Miner.observe_line m ~now:0.
       {|127.0.0.1 - - [d] "GET /missing HTTP/1.1" 404 180|});
  Alcotest.(check bool) "garbage not mineable" false
    (Miner.observe_line m ~now:0. "not a log line");
  Alcotest.(check int) "tracked paths" 2 (Miner.tracked m);
  let paths =
    Miner.rank m ~now:0. ~top_k:10 ~budget_bytes:100_000
    |> List.map (fun c -> c.Miner.c_path)
    |> List.sort compare
  in
  Alcotest.(check (list string)) "resolved path preferred"
    [ "/b.html"; "/docroot/a.html" ] paths

let test_observe_line_304_keeps_size () =
  let m = Miner.create () in
  ignore
    (Miner.observe_line m ~now:0.
       {|h - - [d] "GET /c.html HTTP/1.1" 200 512|});
  (* The revalidation moved 0 body bytes; the size estimate must not
     collapse to 1. *)
  Alcotest.(check bool) "304 mineable" true
    (Miner.observe_line m ~now:1.
       {|h - - [d] "GET /c.html HTTP/1.1" 304 0|});
  match Miner.rank m ~now:1. ~top_k:1 ~budget_bytes:10_000 with
  | [ { c_bytes; _ } ] -> Alcotest.(check int) "size kept" 512 c_bytes
  | l -> Alcotest.failf "expected one candidate, got %d" (List.length l)

(* Property (c): ranking is a deterministic function of the observation
   sequence and the injected clock — two miners fed the same sequence
   rank identically, scores included. *)
let qcheck_miner_deterministic =
  let open QCheck in
  let obs_gen =
    Gen.(
      map3
        (fun k dt bytes -> (Printf.sprintf "/p%d" k, float_of_int dt, bytes))
        (int_bound 7) (int_bound 50) (int_range 1 5000))
  in
  Helpers.qcheck_case ~name:"miner ranking is deterministic" ~count:200
    (QCheck.make
       ~print:(fun l -> Printf.sprintf "%d observations" (List.length l))
       Gen.(list_size (int_range 0 60) obs_gen))
    (fun obs ->
      let feed () =
        let m = Miner.create ~half_life:20. () in
        let now = ref 0. in
        List.iter
          (fun (path, dt, bytes) ->
            now := !now +. dt;
            Miner.observe m ~now:!now ~bytes path)
          obs;
        Miner.rank m ~now:(!now +. 5.) ~top_k:5 ~budget_bytes:8000
      in
      feed () = feed ())

(* ------------------------------------------------------------------ *)
(* Absorber: store stats -> miner observations                         *)
(* ------------------------------------------------------------------ *)

let test_absorb_hit_deltas () =
  let miner = Miner.create () in
  let ab = Warm.create_absorber () in
  let stat hits =
    { Store.ks_hits = hits; ks_last = 0; ks_weight = 100; ks_pinned = false }
  in
  Warm.absorb ab miner ~now:0. ~stats:[ ("/a", stat 5); ("/b", stat 2) ]
    ~rejected:[];
  Warm.absorb ab miner ~now:1.
    ~stats:[ ("/a", stat 5); ("/b", stat 2) ]
    ~rejected:[];
  (* No new hits between cycles: scores must reflect 5 and 2, not 10
     and 4. *)
  (match Miner.rank miner ~now:1. ~top_k:2 ~budget_bytes:10_000 with
  | [ a; b ] ->
      Alcotest.(check string) "a first" "/a" a.Miner.c_path;
      Alcotest.(check bool) "ratio preserved"
        true
        (Float.abs ((a.Miner.c_score /. b.Miner.c_score) -. (5. /. 2.))
        < 0.01)
  | l -> Alcotest.failf "expected two candidates, got %d" (List.length l));
  (* New demand arrives as a delta... *)
  Warm.absorb ab miner ~now:2.
    ~stats:[ ("/a", stat 5); ("/b", stat 12) ]
    ~rejected:[];
  (match Miner.rank miner ~now:2. ~top_k:1 ~budget_bytes:10_000 with
  | [ top ] -> Alcotest.(check string) "b overtakes" "/b" top.Miner.c_path
  | _ -> Alcotest.fail "expected one candidate");
  (* ...and an evicted-and-readmitted key (smaller reading) counts its
     whole fresh total rather than going negative. *)
  Warm.absorb ab miner ~now:3. ~stats:[ ("/a", stat 2) ] ~rejected:[];
  Alcotest.(check bool) "shrunk counter absorbed" true (Miner.tracked miner >= 2)

let test_absorb_rejected_keys_once () =
  let miner = Miner.create () in
  let ab = Warm.create_absorber () in
  Warm.absorb ab miner ~now:0. ~stats:[] ~rejected:[ "/turned-away" ];
  Warm.absorb ab miner ~now:1. ~stats:[] ~rejected:[ "/turned-away" ];
  match Miner.rank miner ~now:1. ~top_k:5 ~budget_bytes:10_000 with
  | [ c ] ->
      Alcotest.(check string) "rejected key tracked" "/turned-away"
        c.Miner.c_path;
      (* Seen once, not once per cycle: score ~ one decayed observation. *)
      Alcotest.(check bool) "counted once" true (c.Miner.c_score <= 1.)
  | l -> Alcotest.failf "expected one candidate, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Helper pool: low-priority prefetch lane                             *)
(* ------------------------------------------------------------------ *)

let with_temp_files n f =
  let dir = Filename.temp_file "flash_warm" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let paths =
    List.init n (fun i ->
        let p = Filename.concat dir (Printf.sprintf "f%d.bin" i) in
        let oc = open_out p in
        output_string oc (String.make 256 'x');
        close_out oc;
        p)
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths;
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f paths)

let rec wait_for ?(tries = 200) pred =
  if tries = 0 then false
  else if pred () then true
  else begin
    Thread.delay 0.01;
    wait_for ~tries:(tries - 1) pred
  end

let test_low_lane_completes_off_the_books () =
  with_temp_files 3 (fun paths ->
      let pool = Flash_live.Helper.create ~helpers:2 () in
      Fun.protect
        ~finally:(fun () -> Flash_live.Helper.shutdown pool)
        (fun () ->
          List.iteri
            (fun i p ->
              Alcotest.(check bool) "low dispatch accepted" true
                (Flash_live.Helper.dispatch_low pool ~key:(-1 - i) ~path:p))
            paths;
          Alcotest.(check bool) "low jobs complete" true
            (wait_for (fun () -> Flash_live.Helper.low_completed pool = 3));
          let completions = Flash_live.Helper.drain pool in
          Alcotest.(check int) "completions delivered" 3
            (List.length completions);
          List.iter
            (fun c ->
              Alcotest.(check bool) "negative key" true
                (c.Flash_live.Helper.key < 0);
              match c.Flash_live.Helper.result with
              | Flash_live.Helper.Found { size; _ } ->
                  Alcotest.(check int) "stat size" 256 size
              | Flash_live.Helper.Missing -> Alcotest.fail "file went missing")
            completions;
          (* The client path's instruments must not see prefetch work. *)
          Alcotest.(check int) "latency histogram untouched" 0
            (Obs.Histogram.count (Flash_live.Helper.job_latency pool));
          Alcotest.(check int) "depth gauge untouched" 0
            (Flash_live.Helper.queue_depth_hwm pool);
          Alcotest.(check int) "own counter instead" 3
            (Flash_live.Helper.low_dispatched pool)))

let test_low_lane_bounded_and_yields_to_clients () =
  with_temp_files 4 (fun paths ->
      let client_path = List.nth paths 0 in
      let gate = Mutex.create () in
      (* Hold the single worker on a client job while we fill the lanes. *)
      Mutex.lock gate;
      let slow_read _ =
        Mutex.lock gate;
        Mutex.unlock gate
      in
      let pool =
        Flash_live.Helper.create ~helpers:1 ~max_low_queued:2 ~slow_read ()
      in
      Fun.protect
        ~finally:(fun () -> Flash_live.Helper.shutdown pool)
        (fun () ->
          Alcotest.(check bool) "client job in" true
            (Flash_live.Helper.dispatch pool ~key:1 ~path:client_path);
          Alcotest.(check bool) "worker picked it up" true
            (wait_for (fun () -> Flash_live.Helper.in_flight pool = 1));
          Alcotest.(check bool) "low 1 queued" true
            (Flash_live.Helper.dispatch_low pool ~key:(-1)
               ~path:(List.nth paths 1));
          Alcotest.(check bool) "low 2 queued" true
            (Flash_live.Helper.dispatch_low pool ~key:(-2)
               ~path:(List.nth paths 2));
          Alcotest.(check bool) "low 3 refused at the bound" false
            (Flash_live.Helper.dispatch_low pool ~key:(-3)
               ~path:(List.nth paths 3));
          Alcotest.(check int) "refusal counted" 1
            (Flash_live.Helper.low_rejected pool);
          (* A second client job arrives while prefetches wait. *)
          Alcotest.(check bool) "client 2 in" true
            (Flash_live.Helper.dispatch pool ~key:2 ~path:client_path);
          Mutex.unlock gate;
          Alcotest.(check bool) "everything drains" true
            (wait_for (fun () ->
                 Flash_live.Helper.low_completed pool = 2
                 && List.length (Flash_live.Helper.drain pool) >= 0
                 && Flash_live.Helper.queue_depth pool = 0
                 && Flash_live.Helper.low_queued pool = 0));
          (* Strict priority: with one worker, both client jobs finished
             before any low job started, so the last two completions on
             the pipe are the prefetches. *)
          Alcotest.(check int) "client histogram saw exactly the client jobs"
            2
            (Obs.Histogram.count (Flash_live.Helper.job_latency pool))))

(* ------------------------------------------------------------------ *)
(* Live server: warm from a recorded access log                        *)
(* ------------------------------------------------------------------ *)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let scrape port =
  match
    Flash_live.Client.get ~host:"127.0.0.1" ~port "/server-status?json"
  with
  | r when r.Flash_live.Client.status = 200 ->
      Some (Test_status.parse_json r.Flash_live.Client.body)
  | _ -> None
  | exception _ -> None

let test_live_warm_from_log () =
  let docroot = Filename.temp_file "flash_warmlive" "" in
  Sys.remove docroot;
  Unix.mkdir docroot 0o755;
  write_file (Filename.concat docroot "hot.bin") (String.make 4096 'h');
  write_file (Filename.concat docroot "cold.bin") (String.make 4096 'c');
  let log = Filename.concat docroot "access.log" in
  (* Yesterday's traffic: hot.bin dominated, in the machine-minable
     format (resolved filesystem path after status and bytes). *)
  let oc = open_out log in
  for _ = 1 to 20 do
    Printf.fprintf oc
      "127.0.0.1 - - [08/Aug/2026:10:00:00 +0000] \"GET /hot.bin \
       HTTP/1.1\" 200 4096 %s\n"
      (Filename.concat docroot "hot.bin")
  done;
  close_out oc;
  let config =
    {
      (Flash_live.Server.default_config ~docroot) with
      Flash_live.Server.port = 0;
      mode = Flash_live.Server.Amped;
      trace = false;
      warm = true;
      warm_log = Some log;
      warm_interval = 0.2;
    }
  in
  let server = Flash_live.Server.start_background config in
  Fun.protect
    ~finally:(fun () -> Flash_live.Server.stop server)
    (fun () ->
      let port = Flash_live.Server.port server in
      let got ?labels name =
        match scrape port with
        | Some j when Test_status.has_row j ?labels name ->
            Test_status.to_int (Test_status.row j ?labels name)
        | _ -> 0
      in
      (* The startup mining must drive a prefetch of hot.bin with no
         client having asked for it. *)
      Alcotest.(check bool) "prefetch completes" true
        (wait_for ~tries:300 (fun () -> got "flash_warm_prefetch_completed_total" >= 1));
      Alcotest.(check bool) "entry pinned" true
        (wait_for (fun () -> got "flash_warm_pinned_entries" >= 1));
      Alcotest.(check bool) "tracked paths exported" true
        (got "flash_warm_tracked_paths" >= 1);
      (* First client request: a cache hit served from the prefetched
         entry, attributed to warming. *)
      let r = Flash_live.Client.get ~host:"127.0.0.1" ~port "/hot.bin" in
      Alcotest.(check int) "warmed file served" 200 r.Flash_live.Client.status;
      Alcotest.(check int) "full body" 4096
        (String.length r.Flash_live.Client.body);
      Alcotest.(check bool) "hit attributed to warming" true
        (wait_for (fun () -> got "flash_warm_hits_after_warm_total" >= 1));
      Alcotest.(check bool) "served from cache" true (got ~labels:[ ("cache", "file") ] "flash_cache_hits_total" >= 1);
      (* The metrics endpoint exports the warm family. *)
      let metrics =
        (Flash_live.Client.get ~host:"127.0.0.1" ~port "/metrics")
          .Flash_live.Client.body
      in
      Alcotest.(check bool) "flash_warm metrics exported" true
        (Helpers.contains ~affix:"flash_warm_prefetch_completed_total" metrics);
      (* An unmined file still serves normally. *)
      let r2 = Flash_live.Client.get ~host:"127.0.0.1" ~port "/cold.bin" in
      Alcotest.(check int) "cold file fine" 200 r2.Flash_live.Client.status)

let test_live_warm_log_missing_is_harmless () =
  let docroot = Filename.temp_file "flash_warmnolog" "" in
  Sys.remove docroot;
  Unix.mkdir docroot 0o755;
  write_file (Filename.concat docroot "a.bin") "aaaa";
  let config =
    {
      (Flash_live.Server.default_config ~docroot) with
      Flash_live.Server.port = 0;
      trace = false;
      warm = true;
      warm_log = Some (Filename.concat docroot "no-such.log");
      warm_interval = 0.2;
    }
  in
  let server = Flash_live.Server.start_background config in
  Fun.protect
    ~finally:(fun () -> Flash_live.Server.stop server)
    (fun () ->
      let port = Flash_live.Server.port server in
      let r = Flash_live.Client.get ~host:"127.0.0.1" ~port "/a.bin" in
      Alcotest.(check int) "serves despite missing log" 200
        r.Flash_live.Client.status;
      (* Warming is on and cycling; demand just mined nothing yet. *)
      match scrape port with
      | Some j ->
          Alcotest.(check bool) "warm rows present" true
            (Test_status.has_row j "flash_warm_cycles_total")
      | None -> Alcotest.fail "no status")

let suite =
  [
    Alcotest.test_case "pin survives pressure" `Quick test_pin_survives_pressure;
    Alcotest.test_case "all pinned refuses shed" `Quick
      test_all_pinned_refuses_shed;
    Alcotest.test_case "remove of pinned unpins first" `Quick
      test_remove_pinned_unpins_first;
    Alcotest.test_case "pin idempotent, stats exact" `Quick
      test_pin_idempotent_and_stats;
    qcheck_pinned_never_victim;
    Alcotest.test_case "miner decay prefers recent" `Quick
      test_miner_decay_prefers_recent;
    Alcotest.test_case "miner is size-aware" `Quick test_miner_size_aware;
    Alcotest.test_case "miner budget cut skips, not stops" `Quick
      test_miner_budget_cut;
    Alcotest.test_case "miner prunes dead entries" `Quick
      test_miner_dead_entries_pruned;
    Alcotest.test_case "observe_line mines the server log format" `Quick
      test_observe_line;
    Alcotest.test_case "observe_line keeps size across 304" `Quick
      test_observe_line_304_keeps_size;
    qcheck_miner_deterministic;
    Alcotest.test_case "absorber feeds hit deltas" `Quick
      test_absorb_hit_deltas;
    Alcotest.test_case "absorber counts rejections once" `Quick
      test_absorb_rejected_keys_once;
    Alcotest.test_case "low lane completes off the books" `Quick
      test_low_lane_completes_off_the_books;
    Alcotest.test_case "low lane bounded, clients first" `Quick
      test_low_lane_bounded_and_yields_to_clients;
    Alcotest.test_case "live server warms from a recorded log" `Quick
      test_live_warm_from_log;
    Alcotest.test_case "missing warm log is harmless" `Quick
      test_live_warm_log_missing_is_harmless;
    (* Spawns a domain — keep with the other post-fork tests. *)
    qcheck_budget_conservation_with_pins;
  ]
