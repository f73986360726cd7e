(* Multicore sharding: concurrent Budget accounting (qcheck: parallel
   charge/release conserves the total, shed never over-frees), and the
   Sharded server end to end — reuseport accepts, and per-shard +
   aggregate telemetry.  Runs real domains and loopback sockets. *)

module Server = Flash_live.Server
module Client = Flash_live.Client
module Budget = Flash_cache.Budget
module Guard = Flash_guard.Guard
open Test_status

(* ------------------------------------------------------------------ *)
(* Concurrent Budget accounting                                        *)
(* ------------------------------------------------------------------ *)

(* Parallel paired charge/release from several domains: the pool must
   conserve the total exactly (end at zero) and never go negative. *)
let budget_arbitrary =
  QCheck.(pair (int_range 2 4) (small_list (int_range 1 1000)))

let prop_budget_conserves (domains, amounts) =
  QCheck.assume (amounts <> []);
  let b = Budget.create ~bytes:max_int in
  let negative_seen = Atomic.make false in
  let workers =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            List.iter
              (fun amount ->
                Budget.charge b amount;
                if Budget.used b < 0 then Atomic.set negative_seen true;
                Budget.release b amount)
              amounts))
  in
  List.iter Domain.join workers;
  Budget.used b = 0 && not (Atomic.get negative_seen)

(* Shedding under contention: members mirror their resident bytes in
   atomics, shed releases exactly what a charge added — so whatever
   interleaving happens, the pool must equal the members' total at the
   end (a shed that over-freed would leave it below, a lost release
   above), and rebalance must land at or under capacity while anything
   is sheddable. *)
let shed_arbitrary = QCheck.(pair (int_range 2 4) (int_range 10 80))

let prop_budget_shed_exact (domains, ops) =
  let chunk = 100 in
  let cap = chunk * 5 in
  let b = Budget.create ~bytes:cap in
  let members =
    List.init domains (fun _ ->
        let resident = Atomic.make 0 in
        Budget.register b
          ~usage:(fun () -> Atomic.get resident)
          ~shed:(fun () ->
            (* Pop one chunk if this member holds one. *)
            let rec try_shed () =
              let cur = Atomic.get resident in
              if cur < chunk then false
              else if Atomic.compare_and_set resident cur (cur - chunk) then begin
                Budget.release b chunk;
                true
              end
              else try_shed ()
            in
            try_shed ());
        resident)
  in
  let workers =
    List.mapi
      (fun _ resident ->
        Domain.spawn (fun () ->
            for _ = 1 to ops do
              ignore (Atomic.fetch_and_add resident chunk);
              Budget.charge b chunk
            done))
      members
  in
  List.iter Domain.join workers;
  Budget.rebalance b;
  let total = List.fold_left (fun a r -> a + Atomic.get r) 0 members in
  Budget.used b = total && Budget.used b >= 0 && Budget.used b <= cap

(* ------------------------------------------------------------------ *)
(* The sharded server                                                  *)
(* ------------------------------------------------------------------ *)

let with_sharded ?cache_budget_bytes ?guard n f =
  let docroot = Test_live.make_docroot () in
  let base = Server.default_config ~docroot in
  let config =
    {
      base with
      Server.mode = Server.Sharded n;
      cache_budget_bytes;
      guard = Option.value guard ~default:base.Server.guard;
    }
  in
  with_config config f

let drive port n =
  for _ = 1 to n do
    let r = get port "/hello.txt" in
    Alcotest.(check int) "hello 200" 200 r.Client.status;
    Alcotest.(check string) "hello body" "hello live world" r.Client.body
  done

(* The listing's sharding rows: one [shard]-labelled row per shard of
   each series, and each aggregate equal to its shards' sum in the same
   snapshot. *)
let check_sharding_rows server j ~domains =
  Alcotest.(check bool) "mode" true
    (Server.mode server = Server.Sharded domains);
  Alcotest.(check string)
    "mode string"
    (Printf.sprintf "sharded:%d" domains)
    (config j "mode");
  let shard_rows name =
    List.filter_map
      (fun (labels, v) ->
        Option.map (fun id -> (id, v)) (List.assoc_opt "shard" labels))
      (rows j name)
  in
  Alcotest.(check (list (pair string (option string))))
    "one config row per shard, naming the backend"
    (List.init domains (fun i -> (string_of_int i, Some (config j "backend"))))
    (List.filter_map
       (fun (labels, _) ->
         Option.map
           (fun id -> (id, List.assoc_opt "backend" labels))
           (List.assoc_opt "shard" labels))
       (rows j "flash_config_info"));
  let requests = shard_rows "flash_http_requests_total" in
  Alcotest.(check int) "shard request rows" domains (List.length requests);
  Alcotest.(check (float 0.))
    "aggregate = sum of shards"
    (List.fold_left (fun a (_, v) -> a +. v) 0. requests)
    (to_num (row j "flash_http_requests_total"))

let test_sharded_reuseport () =
  with_sharded 2 (fun server port ->
      drive port 12;
      let stats = await_stats server (fun s -> s.Server.requests >= 12) in
      Alcotest.(check bool)
        "stats aggregate requests" true
        (stats.Server.requests >= 12);
      Alcotest.(check bool)
        "stats aggregate connections" true
        (stats.Server.connections >= 12);
      check_sharding_rows server (get_status_json port) ~domains:2)

(* A port held by a listener without SO_REUSEPORT refuses the shards'
   binds: the start fails and leaves none of its own sockets open. *)
let test_sharded_bind_refused () =
  let holder = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind holder (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen holder 1;
  let port =
    match Unix.getsockname holder with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> Alcotest.fail "not an inet socket"
  in
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let docroot = Test_live.make_docroot () in
  let before = open_fds () in
  (match
     Server.start
       { (Server.default_config ~docroot) with
         Server.mode = Server.Sharded 2; port }
   with
  | server ->
      Server.stop server;
      Alcotest.fail "a sharded server started on a held port"
  | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ());
  Alcotest.(check int) "no socket left open" before (open_fds ());
  Unix.close holder

let test_sharded_shared_budget () =
  (* One Budget.t across both shards' caches: foreign-shard sheds run
     behind the shared cache lock, and the server keeps serving. *)
  with_sharded ~cache_budget_bytes:(64 * 1024) 2 (fun server port ->
      for _ = 1 to 6 do
        Alcotest.(check int) "index" 200 (get port "/index.html").Client.status;
        Alcotest.(check int) "hello" 200 (get port "/hello.txt").Client.status;
        Alcotest.(check int) "big" 200 (get port "/big.bin").Client.status
      done;
      let stats = await_stats server (fun s -> s.Server.requests >= 18) in
      Alcotest.(check bool) "all served" true (stats.Server.requests >= 18))

(* /metrics of a sharded server: strictly valid exposition, per-shard
   series under the shard label, and the unlabeled aggregate equal to
   the per-shard sum at snapshot. *)
let test_sharded_metrics () =
  with_sharded 2 (fun server port ->
      drive port 10;
      ignore (await_stats server (fun s -> s.Server.requests >= 10));
      let r = get port "/metrics" in
      Alcotest.(check int) "metrics 200" 200 r.Client.status;
      (match Obs.Exposition.validate r.Client.body with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "sharded exposition invalid: %s" msg);
      let lines = String.split_on_char '\n' r.Client.body in
      let requests_value line =
        match String.index_opt line ' ' with
        | Some i ->
            int_of_float
              (float_of_string
                 (String.sub line (i + 1) (String.length line - i - 1)))
        | None -> Alcotest.failf "unparseable sample line %S" line
      in
      let starts_with prefix l =
        String.length l >= String.length prefix
        && String.sub l 0 (String.length prefix) = prefix
      in
      let aggregate = ref None and shards = ref [] in
      List.iter
        (fun l ->
          if starts_with "flash_http_requests_total{shard=" l then
            shards := requests_value l :: !shards
          else if starts_with "flash_http_requests_total " l then
            aggregate := Some (requests_value l))
        lines;
      Alcotest.(check int) "one series per shard" 2 (List.length !shards);
      match !aggregate with
      | None -> Alcotest.fail "aggregate flash_http_requests_total missing"
      | Some agg ->
          Alcotest.(check int)
            "aggregate equals shard sum"
            (List.fold_left ( + ) 0 !shards)
            agg)

(* Loop figures that do not add across shards: the aggregate max stall
   is the worst shard's (and [stats] reads the same), and the batching
   factor's numerator, ready descriptors, is a plain sum.  Retried
   until no loop iteration lands between the /metrics walk and
   [stats]. *)
let test_sharded_loop_aggregates () =
  with_sharded 2 (fun server port ->
      drive port 8;
      ignore (await_stats server (fun s -> s.Server.requests >= 8));
      let rec settle tries =
        let families =
          match Obs.Exposition.validate (Server.metrics_body server) with
          | Ok f -> f
          | Error msg -> Alcotest.failf "sharded exposition invalid: %s" msg
        in
        let stall = (Server.stats server).Server.loop_max_stall in
        (* (the unlabelled aggregate, the shards' values) of a series *)
        let split name =
          let agg, shards =
            List.concat_map (fun f -> f.Obs.Exposition.f_series) families
            |> List.filter (fun s -> s.Obs.Exposition.s_name = name)
            |> List.partition (fun s -> s.Obs.Exposition.s_labels = [])
          in
          let value s = s.Obs.Exposition.s_value in
          (Option.map value (List.nth_opt agg 0), List.map value shards)
        in
        let agg_stall, shard_stalls = split "flash_loop_max_stall_seconds" in
        let close a = Float.abs (a -. stall) <= 1e-9 in
        if not (Option.fold ~none:false ~some:close agg_stall) && tries > 0
        then begin
          Thread.delay 0.05;
          settle (tries - 1)
        end
        else (agg_stall, shard_stalls, stall, split "flash_loop_ready_fds_total")
      in
      let agg_stall, shard_stalls, stall, (agg_ready, shard_ready) =
        settle 20
      in
      Alcotest.(check int) "a stall series per shard" 2
        (List.length shard_stalls);
      Alcotest.(check (option (float 0.)))
        "aggregate stall is the worst shard's"
        (Some (List.fold_left Float.max 0. shard_stalls))
        agg_stall;
      (* /metrics prints nine significant digits. *)
      Alcotest.(check (option (float 1e-9)))
        "stats reads the aggregate" (Some stall) agg_stall;
      Alcotest.(check int) "a ready-fds series per shard" 2
        (List.length shard_ready);
      Alcotest.(check (option (float 0.)))
        "aggregate ready fds is the shards' sum"
        (Some (List.fold_left ( +. ) 0. shard_ready))
        agg_ready)

(* The SLO gauges are a share and a count of one shard's windows, so
   they do not add across shards either: with both shards burning their
   whole budget, the aggregate burn is the worst shard's, not 2.0. *)
let test_sharded_slo_aggregates () =
  let docroot = Test_live.make_docroot () in
  let base = Server.default_config ~docroot in
  with_config
    {
      base with
      Server.mode = Server.Sharded 2;
      recorder_interval = 0.05;
      (* a p50 of at most 1 ns: every window with traffic violates it *)
      latency_slo = Some (50., 1e-6);
    }
    (fun _server port ->
      (* 32 one-shot connections: the kernel leaves a shard without one
         with probability 2^-31. *)
      for _ = 1 to 4 do
        drive port 8;
        Thread.delay 0.06
      done;
      let j = get_status_json port in
      let split name =
        let shards, agg =
          List.partition
            (fun (labels, _) -> List.mem_assoc "shard" labels)
            (rows j name)
        in
        (List.map snd agg, List.map snd shards)
      in
      let agg_burn, shard_burns = split "flash_slo_burn_ratio" in
      let agg_windows, shard_windows = split "flash_slo_windows" in
      Alcotest.(check int) "a burn row per shard" 2 (List.length shard_burns);
      Alcotest.(check bool) "both shards saw traffic" true
        (List.for_all (fun w -> w >= 1.) shard_windows);
      let worst = List.fold_left Float.max 0. in
      Alcotest.(check (list (float 0.)))
        "aggregate burn is the worst shard's" [ worst shard_burns ] agg_burn;
      Alcotest.(check bool) "aggregate burn is a ratio" true
        (List.for_all (fun b -> b > 0. && b <= 1.) agg_burn);
      Alcotest.(check (list (float 0.)))
        "aggregate windows are the most any shard has" [ worst shard_windows ]
        agg_windows)

(* The HTTP/1.1 conformance matrix extended to Sharded: the same wire
   bytes as AMPED for the whole torture table.  Lives here rather than
   in test_http11 because this suite must run last — OCaml 5 forbids
   Unix.fork once any domain has ever been spawned, so the MP entries
   of the matrix (and every other fork test) must precede the first
   Domain.spawn in the binary. *)
let test_sharded_byte_identity () =
  Test_http11.byte_identity_against_amped
    [ ("SHARDED", Server.Sharded 2) ]

(* The SIGUSR1 dump comes from the coordinator, which serves nothing:
   its windows diff the shards' aggregate, so they count the requests
   the shards served. *)
let test_sharded_recorder_dump =
  Test_metrics.test_recorder_dump_parses (Server.Sharded 2)

(* The large-file and pipelining checks of test_sendpath, for the
   fifth mode. *)
let test_sharded_large_file_intact =
  Test_sendpath.test_large_file_intact (Server.Sharded 2)

let test_sharded_pipelined_large =
  Test_sendpath.test_pipelined_large (Server.Sharded 2)

let test_sharded_pipelined_small =
  Test_sendpath.test_pipelined_small (Server.Sharded 2)

let test_sharded_fill_copies_once =
  Test_sendpath.test_fill_copies_once (Server.Sharded 2)

let test_sharded_truncated_copy =
  Test_sendpath.test_truncated_copy (Server.Sharded 2)

let test_sharded_large_file_negotiates =
  Test_http11.test_large_file_negotiates (Server.Sharded 2)

(* The mode-parity case of test_metrics, for the fifth mode. *)
let test_sharded_mode_parity = Test_metrics.test_mode_parity (Server.Sharded 2)

let test_sharded_unusable_sibling =
  Test_http11.test_unusable_sibling_skipped (Server.Sharded 2)

let test_sharded_timers_pending =
  Test_metrics.test_timers_pending (Server.Sharded 2)

(* Every instance of a sharded server renders its trace views from
   every shard's ring: the snapshot holds every request sent, oldest
   first, under distinct ids, and /server-trace, rendered by whichever
   shard takes the connection, carries them all. *)
let test_sharded_trace_views () =
  with_sharded 2 (fun server port ->
      let n = 6 in
      drive port n;
      let snap =
        Test_trace.await_traces server (fun snap -> List.length snap >= n)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%d traces for %d requests" (List.length snap) n)
        true
        (List.length snap >= n);
      let ends =
        List.map (fun (d : Obs.Trace.trace_data) -> d.Obs.Trace.t_end) snap
      in
      Alcotest.(check bool) "oldest first" true
        (ends = List.sort Float.compare ends);
      let ids =
        List.map (fun (d : Obs.Trace.trace_data) -> d.Obs.Trace.id) snap
      in
      Alcotest.(check int) "distinct ids" (List.length ids)
        (List.length (List.sort_uniq compare ids));
      let served =
        match
          member "traceEvents"
            (parse_json (get port "/server-trace").Client.body)
        with
        | Arr evs ->
            List.filter_map
              (fun e ->
                if to_str (member "ph" e) = "X" then
                  Some (to_int (member "trace" (member "args" e)))
                else None)
              evs
            |> List.sort_uniq compare
        | _ -> Alcotest.fail "traceEvents is not an array"
      in
      Alcotest.(check bool)
        (Printf.sprintf "/server-trace holds %d traces" (List.length served))
        true
        (List.length served >= n))

(* The helper histogram comes from the walk [stats] reads, so a sharded
   server, whose coordinator has no helpers, reports the shards' merge. *)
let test_sharded_helper_latency () =
  with_sharded 2 (fun server port ->
      let cold = [ "/hello.txt"; "/index.html"; "/sub/index.html" ] in
      List.iter
        (fun p -> Alcotest.(check int) p 200 (get port p).Client.status)
        cold;
      let stats = await_stats server (fun s -> s.Server.helper_jobs >= 3) in
      Alcotest.(check int) "cold misses" 3 stats.Server.cache_misses;
      match Server.helper_job_latency server with
      | None -> Alcotest.fail "sharded should expose helper job latency"
      | Some h ->
          Alcotest.(check bool)
            (Printf.sprintf "%d jobs timed for 3 cold misses"
               (Obs.Histogram.count h))
            true
            (Obs.Histogram.count h >= 3))

(* ------------------------------------------------------------------ *)
(* Guard × sharding                                                    *)
(* ------------------------------------------------------------------ *)

(* Issue a one-shot GET, tolerating the guard's own refusals while a
   freed connection slot propagates (disconnects are processed
   asynchronously by the owning shard). *)
let rec get_admitted ?(tries = 40) port path =
  match get port path with
  | r when r.Client.status = 200 -> r
  | r when tries = 0 -> r
  | _ ->
      Thread.delay 0.05;
      get_admitted ~tries:(tries - 1) port path
  | exception e ->
      if tries = 0 then raise e
      else begin
        Thread.delay 0.05;
        get_admitted ~tries:(tries - 1) port path
      end

(* Each shard owns its own guard: with a per-peer cap of one connection
   and two shards, six silent connections from one peer can hold at most
   two slots (one per shard, fewer if the kernel hashes them onto the
   same shard) — everyone else is answered 429 at the door.  Closing the
   holders frees the slots. *)
let test_sharded_guard_conn_cap () =
  with_sharded
    ~guard:{ Guard.default_config with Guard.max_conns_per_ip = Some 1 }
    2
    (fun _server port ->
      let fds =
        List.init 6 (fun _ ->
            let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
            fd)
      in
      (* Let every shard write its verdict: refused fds now hold a 429
         response and EOF; admitted ones are silent. *)
      Thread.delay 0.5;
      let buf = Bytes.create 4096 in
      let refused =
        List.fold_left
          (fun acc fd ->
            Unix.set_nonblock fd;
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 -> acc + 1
            | n ->
                let payload = Bytes.sub_string buf 0 n in
                Alcotest.(check bool)
                  "refusal is a 429" true
                  (Helpers.contains payload ~affix:" 429 Too Many Requests");
                Alcotest.(check bool)
                  "refusal advises Retry-After" true
                  (Helpers.contains payload ~affix:"Retry-After:");
                acc + 1
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
              ->
                acc
            | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> acc + 1)
          0 fds
      in
      Alcotest.(check bool)
        (Printf.sprintf "at most one slot per shard (refused %d of 6)" refused)
        true (refused >= 4);
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds;
      (* Slots free once the owning shards process the disconnects. *)
      let r = get_admitted port "/hello.txt" in
      Alcotest.(check int) "slot freed after close" 200 r.Client.status)

(* Guard telemetry under sharding: flash_guard_* series carry the shard
   label, the unlabeled aggregate equals the per-shard sum in the same
   scrape, and the status listing carries the aggregate. *)
let test_sharded_guard_metrics () =
  with_sharded
    ~guard:{ Guard.default_config with Guard.max_conns_per_ip = Some 1 }
    2
    (fun _server port ->
      (* Provoke a few conn-cap sheds: pairs of simultaneous silent
         connections from one peer, second of the pair refused whenever
         both hash to the same shard's singleton slot. *)
      let provoke () =
        let fds =
          List.init 4 (fun _ ->
              let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
              Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
              fd)
        in
        Thread.delay 0.3;
        List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds
      in
      provoke ();
      let metrics = (get_admitted port "/metrics").Client.body in
      (match Obs.Exposition.validate metrics with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "guarded sharded exposition invalid: %s" msg);
      let lines = String.split_on_char '\n' metrics in
      let sample_value line =
        match String.rindex_opt line ' ' with
        | Some i ->
            int_of_float
              (float_of_string
                 (String.sub line (i + 1) (String.length line - i - 1)))
        | None -> Alcotest.failf "unparseable sample line %S" line
      in
      let shard_sum = ref 0
      and aggregate = ref 0
      and shard_series = ref 0 in
      List.iter
        (fun l ->
          if String.starts_with ~prefix:"flash_guard_shed_total{" l then
            if Helpers.contains l ~affix:"shard=" then begin
              incr shard_series;
              shard_sum := !shard_sum + sample_value l
            end
            else aggregate := !aggregate + sample_value l)
        lines;
      (* Two shards times eight pre-registered reasons. *)
      Alcotest.(check int) "shard-labeled shed series" 16 !shard_series;
      Alcotest.(check int) "aggregate equals per-shard sum" !shard_sum
        !aggregate;
      Alcotest.(check bool) "sheds recorded" true (!shard_sum >= 1);
      Alcotest.(check bool)
        "state gauge carries the shard label" true
        (Helpers.contains metrics ~affix:"flash_guard_state{shard=");
      (* The status listing carries every reason's aggregate row.  Fetch
         via [get_admitted]: the provoking peer's freed conn slot
         propagates asynchronously, so a prompt fetch can still be 429. *)
      let j = parse_json (get_admitted port "/server-status?json").Client.body in
      List.iter
        (fun reason ->
          let label = Guard.reason_label reason in
          Alcotest.(check bool)
            ("aggregate shed row for " ^ label)
            true
            (has_row j ~labels:[ ("reason", label) ] "flash_guard_shed_total"))
        Guard.all_reasons)

(* Unsharded servers carry no sharding rows: no shard label. *)
let test_unsharded_views () =
  let docroot = Test_live.make_docroot () in
  with_config (Server.default_config ~docroot) (fun _server port ->
      let text = (get port "/server-status").Client.body in
      Alcotest.(check bool) "no shard label" false
        (Helpers.contains text ~affix:"shard=\""))

let suite =
  [
    Helpers.qcheck_case ~count:30 ~name:"budget conserves under domains"
      budget_arbitrary prop_budget_conserves;
    Helpers.qcheck_case ~count:20 ~name:"budget shed never over-frees"
      shed_arbitrary prop_budget_shed_exact;
    Alcotest.test_case "sharded serves over reuseport" `Quick
      test_sharded_reuseport;
    Alcotest.test_case "a refused bind leaves no socket open" `Quick
      test_sharded_bind_refused;
    Alcotest.test_case "shards share one cache budget" `Quick
      test_sharded_shared_budget;
    Alcotest.test_case "sharded /metrics validates and aggregates" `Quick
      test_sharded_metrics;
    Alcotest.test_case "sharded loop gauges aggregate" `Quick
      test_sharded_loop_aggregates;
    Alcotest.test_case "sharded SLO gauges aggregate with max" `Quick
      test_sharded_slo_aggregates;
    Alcotest.test_case "HTTP/1.1 byte-identity vs AMPED" `Quick
      test_sharded_byte_identity;
    Alcotest.test_case "SIGUSR1 dump body parses (sharded 2)" `Quick
      test_sharded_recorder_dump;
    Alcotest.test_case "8 MB uncached file intact" `Quick
      test_sharded_large_file_intact;
    Alcotest.test_case "per-shard guard enforces conn caps" `Quick
      test_sharded_guard_conn_cap;
    Alcotest.test_case "sharded guard metrics aggregate" `Quick
      test_sharded_guard_metrics;
    Alcotest.test_case "unsharded listing has no shard rows" `Quick
      test_unsharded_views;
    Alcotest.test_case "pipelined 2.5 MB + small" `Quick
      test_sharded_pipelined_large;
    Alcotest.test_case "pipelined 200/304/206/404 vs AMPED" `Quick
      test_sharded_pipelined_small;
    Alcotest.test_case "a small-file fill copies once" `Quick
      test_sharded_fill_copies_once;
    Alcotest.test_case "truncated cached copy served whole" `Quick
      test_sharded_truncated_copy;
    Alcotest.test_case "mode parity (sharded 2)" `Quick
      test_sharded_mode_parity;
    Alcotest.test_case "timers pending fold every loop (sharded 2)" `Quick
      test_sharded_timers_pending;
    Alcotest.test_case "trace views read every shard's ring" `Quick
      test_sharded_trace_views;
    Alcotest.test_case "helper job latency is the shards' merge" `Quick
      test_sharded_helper_latency;
    Alcotest.test_case "a large file negotiates gzip" `Quick
      test_sharded_large_file_negotiates;
    Alcotest.test_case "an unusable .gz sibling is skipped" `Quick
      test_sharded_unusable_sibling;
    Alcotest.test_case "a failed start leaks nothing (sharded 2)" `Quick
      (fun () ->
        Helpers.check_failed_start_leaks_nothing (Flash_live.Server.Sharded 2));
    Alcotest.test_case "CGI that cannot start (sharded 2)" `Quick
      (Test_live.test_cgi_unstartable (Server.Sharded 2));
    Alcotest.test_case "CGI reset mid-script stalls nothing (sharded 2)"
      `Quick
      (Test_live.test_cgi_reset_no_stall (Server.Sharded 2));
    Alcotest.test_case "CGI inherits no descriptor (sharded 2)" `Quick
      (Test_live.test_cgi_inherits_nothing (Server.Sharded 2));
    Alcotest.test_case "span sequence per request kind (sharded 2)" `Quick
      (Test_trace.span_sequences (Server.Sharded 2));
  ]
