(* The zero-copy gather-write send path: iovec slice bookkeeping under
   partial writes, (mtime, size) cache validation, eviction releasing
   mappings, byte-identical multi-megabyte responses in all four
   architectures, pipelined bursts answered in order in every mode, the
   syscall/copy accounting that proves a cached GET is one writev with
   no userspace body copy and one readiness wait, files too large to
   cache served from a mapping that is released after the response and
   ends the connection when the file shrinks, a small file's fill
   copying its body once, and cached read copies that outlive a
   truncation. *)

module Server = Flash_live.Server
module Client = Flash_live.Client
module Sendq = Flash_live.Sendq
module File_cache = Flash_live.File_cache

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* Position-dependent bytes: any dropped, duplicated or reordered range
   under a partial write changes the result, so byte-identity is a
   strong check. *)
let patterned n =
  String.init n (fun i -> Char.chr ((i * 31 + ((i lsr 8) * 7) + 13) land 0xff))

let make_docroot files =
  let dir = Filename.temp_file "flash_sendpath" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  List.iter (fun (name, body) -> write_file (Filename.concat dir name) body) files;
  dir

let with_config_server config f =
  let server = Server.start_background config in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () -> f server (Server.port server))

let rec await ?(tries = 60) server pred =
  let stats = Server.stats server in
  if pred stats || tries = 0 then stats
  else begin
    Thread.delay 0.05;
    await ~tries:(tries - 1) server pred
  end

(* ------------------------------------------------------------------ *)
(* Send-queue resumption under arbitrary partial writes                *)
(* ------------------------------------------------------------------ *)

(* Drain a send queue through gather/advance with an adversarial
   short-write schedule, collecting the bytes a socket would have seen. *)
let drain_with_schedule q schedule =
  let out = Buffer.create 256 in
  let schedule = if schedule = [] then [ 1 ] else schedule in
  let sched = ref schedule in
  let next_budget () =
    let b = match !sched with [] -> sched := schedule; List.hd schedule | x :: rest -> sched := rest; x in
    max 1 b
  in
  while not (Sendq.is_empty q) do
    let slices = Sendq.gather q in
    let total = Iovec.total_length slices in
    let budget = min (next_budget ()) total in
    (* Copy [budget] bytes off the front of the gathered slices — what a
       socket accepting a short write would take. *)
    let taken = ref 0 in
    Array.iter
      (fun s ->
        let want = min s.Iovec.len (budget - !taken) in
        if want > 0 then begin
          Buffer.add_string out (Iovec.sub_string s.Iovec.buf ~off:s.Iovec.off ~len:want);
          taken := !taken + want
        end)
      slices;
    Sendq.advance q !taken
  done;
  Buffer.contents out

let sendq_resumption_prop (parts, schedule) =
  let q = Sendq.create () in
  List.iteri
    (fun i part ->
      (* Exercise both entry points. *)
      if i mod 2 = 0 then ignore (Sendq.push_string q part)
      else Sendq.push_slice q (Iovec.slice (Iovec.of_string part)))
    parts;
  let got = drain_with_schedule q schedule in
  got = String.concat "" parts

let test_sendq_resumption =
  Helpers.qcheck_case ~count:300 ~name:"sendq survives partial writes"
    QCheck.(pair (small_list small_string) (small_list small_nat))
    sendq_resumption_prop

(* The 206 send path queues a window into the middle of a cached body
   ([Iovec.slice ~off ~len]); resumption must keep honouring the
   window's start under any short-write schedule — a slice that quietly
   rewound to offset 0 would serve bytes outside the requested range. *)
let offset_slice_prop (n, off_seed, len_seed, schedule) =
  let n = max 1 n in
  let buf = Iovec.of_string (patterned n) in
  let off = off_seed mod n in
  let len = 1 + (len_seed mod (n - off)) in
  let q = Sendq.create () in
  ignore (Sendq.push_string q "H");
  Sendq.push_slice q (Iovec.slice ~off ~len buf);
  let got = drain_with_schedule q schedule in
  got = "H" ^ String.sub (patterned n) off len

let test_offset_slice_resumption =
  Helpers.qcheck_case ~count:300 ~name:"mid-buffer slices resume at offset"
    QCheck.(
      quad small_nat small_nat small_nat (small_list small_nat))
    offset_slice_prop

(* ------------------------------------------------------------------ *)
(* Cache validation and mapping release                                *)
(* ------------------------------------------------------------------ *)

let entry_of_body body ~mapped ~size mtime =
  {
    File_cache.body;
    mapped;
    mtime;
    size;
    etag = Printf.sprintf "\"%x-%x\"" (int_of_float mtime) size;
    encoding = None;
    header_keep = Iovec.of_string "K";
    header_close = Iovec.of_string "C";
    header_304_keep = Iovec.of_string "k";
    header_304_close = Iovec.of_string "c";
  }

let mk_entry ?(mapped = None) body mtime =
  entry_of_body (Iovec.of_string body) ~mapped ~size:(String.length body) mtime

let test_cache_validates_mtime_and_size () =
  let c = File_cache.create ~capacity_bytes:1_000_000 () in
  File_cache.insert c "/a" (mk_entry "abc" 10.);
  Alcotest.(check bool) "hit on exact (mtime, size)" true
    (File_cache.find c "/a" ~mtime:10. ~size:3 <> None);
  (* Same-second rewrite that changed the length: stale. *)
  Alcotest.(check bool) "size mismatch misses" true
    (File_cache.find c "/a" ~mtime:10. ~size:4 = None);
  Alcotest.(check bool) "stale entry dropped" true
    (File_cache.find c "/a" ~mtime:10. ~size:3 = None);
  File_cache.insert c "/a" (mk_entry "abc" 10.);
  Alcotest.(check bool) "mtime mismatch misses" true
    (File_cache.find c "/a" ~mtime:11. ~size:3 = None)

(* A file above [File_cache.copy_limit], so its body is a mapping. *)
let big = 96 * 1024

(* [f] runs holding a lease on the mapping, as the code that builds an
   entry does, so one mapping can back several entries in turn; ending
   that lease after every entry is gone unmaps it. *)
let with_mapped_entry f =
  let path = Filename.temp_file "flash_map" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      write_file path (patterned big);
      let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
      let body, mapped =
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () -> File_cache.map_body fd ~size:big)
      in
      Option.iter File_cache.acquire mapped;
      f body mapped;
      Option.iter File_cache.release mapped;
      if mapped <> None then
        Alcotest.(check int) "unmapped after its last lease" 0
          (Bigarray.Array1.dim body))

let test_eviction_releases_mappings () =
  with_mapped_entry (fun body mapped ->
      let entry mt = entry_of_body body ~mapped ~size:big mt in
      (* Mapping survives the descriptor close: the bytes still read. *)
      Alcotest.(check string) "mapping readable after close"
        (String.sub (patterned big) 0 64)
        (Iovec.sub_string body ~off:0 ~len:64);
      let c = File_cache.create ~capacity_bytes:(3 * big / 2) () in
      File_cache.insert c "/one" (entry 1.);
      if mapped <> None then
        Alcotest.(check int) "insert charges the gauge" big
          (File_cache.mapped_bytes c);
      (* A second mapped entry overflows the budget: LRU evicts the
         first, and the gauge must fall back to one entry's worth. *)
      File_cache.insert c "/two" (entry 2.);
      Alcotest.(check int) "eviction uncharges"
        (if mapped <> None then big else 0)
        (File_cache.mapped_bytes c);
      Alcotest.(check bool) "old entry gone" true
        (File_cache.find c "/one" ~mtime:1. ~size:big = None);
      File_cache.remove c "/two";
      Alcotest.(check int) "explicit remove uncharges too" 0
        (File_cache.mapped_bytes c))

(* Regression for the remove/on_evict asymmetry: a stale hit (mtime or
   size mismatch) drops the entry through the evict hook, so the
   mapped-bytes gauge falls with it instead of drifting upward as stale
   entries are replaced. *)
let test_stale_drop_uncharges_gauge () =
  with_mapped_entry (fun body mapped ->
      if mapped <> None then begin
        let entry mt = entry_of_body body ~mapped ~size:big mt in
        let c = File_cache.create ~capacity_bytes:(4 * big) () in
        File_cache.insert c "/f" (entry 1.);
        Alcotest.(check int) "charged" big (File_cache.mapped_bytes c);
        (* The file was rewritten: the lookup detects staleness. *)
        Alcotest.(check bool) "stale lookup misses" true
          (File_cache.find c "/f" ~mtime:2. ~size:big = None);
        Alcotest.(check int) "stale drop uncharged the gauge" 0
          (File_cache.mapped_bytes c);
        (* Re-inserting the fresh entry charges once, not twice. *)
        File_cache.insert c "/f" (entry 2.);
        Alcotest.(check int) "fresh entry charged once" big
          (File_cache.mapped_bytes c);
        File_cache.remove c "/f"
      end)

(* A file of at most [File_cache.copy_limit] bytes is cached as a read
   copy, which the gauge does not count; a larger one as a mapping. *)
let test_server_reports_mapped_bytes () =
  let docroot =
    make_docroot [ ("small.bin", patterned 4096); ("page.bin", patterned big) ]
  in
  let config = Server.default_config ~docroot in
  with_config_server config (fun server port ->
      let get path = Client.get ~host:"127.0.0.1" ~port path in
      Alcotest.(check int) "small 200" 200 (get "/small.bin").Client.status;
      Alcotest.(check int) "200" 200 (get "/page.bin").Client.status;
      let stats =
        await server (fun s ->
            s.Server.requests >= 2 && s.Server.mapped_bytes > 0)
      in
      (* The mapping may legitimately have fallen back to a copy on an
         exotic filesystem; when it mapped, the stat must say so. *)
      if stats.Server.mapped_bytes > 0 then
        Alcotest.(check int) "mapped bytes = the large file's size" big
          stats.Server.mapped_bytes)

(* ------------------------------------------------------------------ *)
(* Byte-identity across architectures                                  *)
(* ------------------------------------------------------------------ *)

(* 2.5 MB >> the 64 KB socket buffers: the response is forced through
   many partial writes, exercising offset-advance in every mode. *)
let big_body = lazy (patterned 2_500_000)

let test_multi_mb_identical mode () =
  let body = Lazy.force big_body in
  let docroot = make_docroot [ ("big.bin", body); ("small.txt", "tiny") ] in
  let config = { (Server.default_config ~docroot) with Server.mode } in
  with_config_server config (fun _server port ->
      let session = Client.Session.connect ~host:"127.0.0.1" ~port () in
      Fun.protect
        ~finally:(fun () -> Client.Session.close session)
        (fun () ->
          (* Twice over one keep-alive connection: cold then cached. *)
          let r1 = Client.Session.request session "/big.bin" in
          let r2 = Client.Session.request session "/big.bin" in
          let r3 = Client.Session.request session "/small.txt" in
          Alcotest.(check int) "cold 200" 200 r1.Client.status;
          Alcotest.(check bool) "cold body identical" true
            (String.equal r1.Client.body body);
          Alcotest.(check bool) "cached body identical" true
            (String.equal r2.Client.body body);
          Alcotest.(check string) "session still in sync" "tiny"
            r3.Client.body))

(* ------------------------------------------------------------------ *)
(* Pipelining in every mode                                            *)
(* ------------------------------------------------------------------ *)

(* Requests pipelined in one segment, so all are read before the first
   answer leaves: it is written in the turn that read them, each later
   one on a writable wakeup after.  [warm] paths are fetched first, one
   at a time over the same connection (an MP child or a shard caches
   for itself), and [segment] builds the burst from their answers.
   [expect] holds each answer's status and, where given, its body. *)
type burst = {
  files : (string * string) list;
  warm : string list;
  segment : Helpers.Raw.response list -> string;
  expect : (int * string option) list;
}

let get ?(headers = []) path =
  Printf.sprintf "GET %s HTTP/1.1\r\nHost: t\r\n%s\r\n" path
    (String.concat ""
       (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers))

(* 2.5 MB, far more than the socket buffers take, with a small file
   behind it. *)
let large_burst () =
  let body = Lazy.force big_body in
  {
    files = [ ("big.bin", body); ("small.txt", "tiny") ];
    warm = [];
    segment =
      (fun _ ->
        get "/big.bin" ^ get ~headers:[ ("Connection", "close") ] "/small.txt");
    expect = [ (200, Some body); (200, Some "tiny") ];
  }

(* Small cached answers: a 200, a 304 via If-None-Match, a 206 via
   Range, and a 404 that closes. *)
let small_burst () =
  let a = patterned 3000 in
  {
    files = [ ("a.txt", a); ("b.txt", "bee body") ];
    warm = [ "/a.txt"; "/b.txt" ];
    segment =
      (fun warmed ->
        let b = List.nth warmed 1 in
        let etag =
          match List.assoc_opt "etag" b.Helpers.Raw.headers with
          | Some e -> e
          | None -> Alcotest.fail "no ETag on b.txt"
        in
        get "/a.txt"
        ^ get ~headers:[ ("If-None-Match", etag) ] "/b.txt"
        ^ get ~headers:[ ("Range", "bytes=4-11") ] "/a.txt"
        ^ get ~headers:[ ("Connection", "close") ] "/missing.txt");
    expect =
      [
        (200, Some a); (304, None); (206, Some (String.sub a 4 8)); (404, None);
      ];
  }

let pipelined_answers burst ~docroot mode =
  with_config_server
    { (Server.default_config ~docroot) with Server.mode }
    (fun _server port ->
      let s = Helpers.Raw.open_session ~port in
      Fun.protect
        ~finally:(fun () -> Helpers.Raw.close_session s)
        (fun () ->
          let warmed = List.map (Helpers.Raw.session_request s) burst.warm in
          let segment = burst.segment warmed in
          ignore
            (Unix.write_substring s.Helpers.Raw.fd segment 0
               (String.length segment));
          let answers, rest =
            List.fold_left
              (fun (acc, leftover) _ ->
                let r, rest =
                  Helpers.Raw.read_response s.Helpers.Raw.fd leftover
                in
                (r :: acc, rest))
              ([], s.Helpers.Raw.leftover)
              burst.expect
          in
          let tail = Buffer.create 16 in
          Buffer.add_string tail rest;
          Helpers.Raw.read_until_close s.Helpers.Raw.fd tail;
          Alcotest.(check int) "no bytes after the closing answer" 0
            (Buffer.length tail);
          List.rev answers))

(* Each burst serves one docroot to every mode, so ETag and
   Last-Modified agree and the answers compare byte for byte (Date
   masked) with AMPED's. *)
let test_pipelined make_burst =
  let burst = lazy (make_burst ()) in
  let docroot = lazy (make_docroot (Lazy.force burst).files) in
  let answers mode =
    pipelined_answers (Lazy.force burst) ~docroot:(Lazy.force docroot) mode
  in
  let amped = lazy (answers Server.Amped) in
  fun mode () ->
    let expect = (Lazy.force burst).expect in
    let got = answers mode in
    Alcotest.(check (list int)) "answers in order" (List.map fst expect)
      (List.map (fun r -> r.Helpers.Raw.status) got);
    List.iteri
      (fun i ((_, want), r) ->
        match want with
        | Some body when not (String.equal body r.Helpers.Raw.body) ->
            Alcotest.failf "answer %d: %d body bytes differ from the %d wanted"
              i (String.length r.Helpers.Raw.body) (String.length body)
        | _ -> ())
      (List.combine expect got);
    let masked =
      List.map (fun r -> Helpers.Raw.mask_dates r.Helpers.Raw.raw)
    in
    Alcotest.(check bool) "bytes identical to AMPED's" true
      (masked got = masked (Lazy.force amped))

let test_pipelined_large = test_pipelined large_burst
let test_pipelined_small = test_pipelined small_burst

(* ------------------------------------------------------------------ *)
(* Syscall/copy accounting: the acceptance criterion                   *)
(* ------------------------------------------------------------------ *)

(* A warm cached GET on the writev path must cost exactly one gather
   write and zero userspace body copies. *)
let test_cached_get_is_one_writev_zero_copies () =
  let body = patterned 4096 in
  let docroot = make_docroot [ ("page.bin", body) ] in
  let config = Server.default_config ~docroot in
  with_config_server config (fun server port ->
      let session = Client.Session.connect ~host:"127.0.0.1" ~port () in
      Fun.protect
        ~finally:(fun () -> Client.Session.close session)
        (fun () ->
          (* Warm the cache (the cold request copies only headers).
             Await the warm writev itself, not just the request count:
             the client unblocks the moment the syscall completes, which
             can be before the loop thread has incremented the
             counter. *)
          let r1 = Client.Session.request session "/page.bin" in
          Alcotest.(check int) "warm 200" 200 r1.Client.status;
          let s0 =
            await server (fun s ->
                s.Server.requests >= 1 && s.Server.writev_calls >= 1)
          in
          let r2 = Client.Session.request session "/page.bin" in
          Alcotest.(check bool) "cached body identical" true
            (String.equal r2.Client.body body);
          let s1 =
            await server (fun s ->
                s.Server.writev_calls > s0.Server.writev_calls)
          in
          Alcotest.(check int) "exactly one writev" 1
            (s1.Server.writev_calls - s0.Server.writev_calls);
          Alcotest.(check int) "zero bytes copied" 0
            (s1.Server.bytes_copied - s0.Server.bytes_copied)))

(* A response is written in the loop turn that read its request, so a
   cached keep-alive GET costs one readiness wait, not a read wakeup
   plus a writability wakeup.  The slack covers timer fires (the flight
   recorder's one-second rollup, an MP child's deferred report, at most
   one per 50 ms).  MP reads its children's loops from their reports. *)
let test_one_wakeup_per_request mode () =
  let docroot = make_docroot [ ("page.bin", patterned 4096) ] in
  with_config_server
    { (Server.default_config ~docroot) with Server.mode }
    (fun server port ->
      let s = Helpers.Raw.open_session ~port in
      Fun.protect
        ~finally:(fun () -> Helpers.Raw.close_session s)
        (fun () ->
          let warm = Helpers.Raw.session_request s "/page.bin" in
          Alcotest.(check int) "warm 200" 200 warm.Helpers.Raw.status;
          let s0 = await server (fun st -> st.Server.writev_calls >= 1) in
          let n = 200 in
          for _ = 1 to n do
            let r = Helpers.Raw.session_request s "/page.bin" in
            if r.Helpers.Raw.status <> 200 then
              Alcotest.failf "status %d" r.Helpers.Raw.status
          done;
          let s1 =
            await server (fun st ->
                st.Server.writev_calls >= s0.Server.writev_calls + n)
          in
          Alcotest.(check int) "one writev per request" n
            (s1.Server.writev_calls - s0.Server.writev_calls);
          let wakeups = s1.Server.loop_wakeups - s0.Server.loop_wakeups in
          if wakeups > n + 10 then
            Alcotest.failf "%d loop wakeups for %d requests" wakeups n))

(* MP children report their send counters to the parent in their
   walks; the consolidated view must include them. *)
let test_mp_send_counters_consolidated () =
  let docroot = make_docroot [ ("page.bin", patterned 1024) ] in
  let config =
    { (Server.default_config ~docroot) with Server.mode = Server.Mp 2 }
  in
  with_config_server config (fun server port ->
      let r1 = Client.get ~host:"127.0.0.1" ~port "/page.bin" in
      let r2 = Client.get ~host:"127.0.0.1" ~port "/page.bin" in
      Alcotest.(check (list int)) "both 200" [ 200; 200 ]
        [ r1.Client.status; r2.Client.status ];
      let stats = await server (fun s -> s.Server.writev_calls >= 2) in
      Alcotest.(check bool) "children's send syscalls consolidated" true
        (stats.Server.writev_calls >= 2))

(* A file above [max_cached_file] is served from a mapping made for the
   request and never cached.  Over one keep-alive session (one MP child
   or shard, whose own counters it reads) a GET, a Range, a conditional
   GET and a HEAD are each answered from it, byte-exact at their
   Content-Length and copying only their rendered headers; the cache
   gains no entry, and where the server shares the test's address space
   no mapping of the file is left once the answers are read.  Sharded
   runs it from test_sharded.ml, after every fork test. *)
let test_large_file_intact mode () =
  let body = patterned (8 * 1024 * 1024) in
  let docroot = make_docroot [ ("big.bin", body) ] in
  Fun.protect ~finally:(fun () -> Sys.remove (Filename.concat docroot "big.bin"))
  @@ fun () ->
  with_config_server
    { (Server.default_config ~docroot) with Server.mode }
    (fun _ port ->
      let s = Helpers.Raw.open_session ~port in
      Fun.protect ~finally:(fun () -> Helpers.Raw.close_session s) @@ fun () ->
      let entries () =
        let r = Helpers.Raw.session_request s "/server-status?json" in
        let j = Test_status.parse_json r.Helpers.Raw.body in
        Test_status.(
          to_int (row j ~labels:[ ("cache", "file") ] "flash_cache_entries"))
      in
      let before = entries () in
      let fetch ?(meth = "GET") ?(headers = []) name ~status =
        let r, _, copied =
          Test_http11.measure_on s ~request:(meth, "/big.bin", headers)
        in
        Alcotest.(check int) (name ^ " status") status r.Helpers.Raw.status;
        if copied >= 4096 then Alcotest.failf "%s copied %d bytes" name copied;
        r
      in
      let check_body name want (r : Helpers.Raw.response) =
        Alcotest.(check (option string))
          (name ^ " advertised length")
          (Some (string_of_int (String.length want)))
          (List.assoc_opt "content-length" r.Helpers.Raw.headers);
        if not (String.equal r.Helpers.Raw.body want) then
          Alcotest.failf "%s: %d body bytes differ from the %d wanted" name
            (String.length r.Helpers.Raw.body)
            (String.length want)
      in
      let full = fetch "GET" ~status:200 in
      check_body "GET" body full;
      let window =
        fetch "Range" ~status:206
          ~headers:[ ("Range", "bytes=1000000-1999999") ]
      in
      check_body "Range" (String.sub body 1_000_000 1_000_000) window;
      let etag =
        match List.assoc_opt "etag" full.Helpers.Raw.headers with
        | Some e -> e
        | None -> Alcotest.fail "no ETag"
      in
      ignore
        (fetch "If-None-Match" ~status:304
           ~headers:[ ("If-None-Match", etag) ]);
      let head = fetch "HEAD" ~meth:"HEAD" ~status:200 in
      Alcotest.(check (option string))
        "HEAD advertised length"
        (Some (string_of_int (String.length body)))
        (List.assoc_opt "content-length" head.Helpers.Raw.headers);
      Alcotest.(check int) "no cache entry added" before (entries ());
      match mode with
      | Server.Mp _ -> ()
      | _ ->
          if Test_miss_path.have_proc_maps then
            Alcotest.(check int) "no mapping left" 0
              (Test_miss_path.maps_under docroot))

(* A large file that shrinks under its mapping cannot fill the
   Content-Length already on the wire.  The [writev] that reaches past
   the new end fails, and the server closes having sent what the file
   still holds: a pipelined response written after the short body would
   be read as the rest of it.  48 MB is far more than the loopback
   socket buffers absorb, so the cut to 24 MB lands while the server's
   send offset is still well short of it. *)
let test_streamed_file_shrinks mode () =
  let size = 48 * 1024 * 1024 in
  let docroot = make_docroot [ ("small.txt", "tiny") ] in
  let path = Filename.concat docroot "big.bin" in
  let oc = open_out_bin path in
  let block = String.make 65536 'x' in
  for _ = 1 to size / 65536 do
    output_string oc block
  done;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  with_config_server
    { (Server.default_config ~docroot) with Server.mode }
    (fun _ port ->
      let fd = Helpers.Raw.connect ~port in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
      let burst =
        get "/big.bin" ^ get ~headers:[ ("Connection", "close") ] "/small.txt"
      in
      ignore (Unix.write_substring fd burst 0 (String.length burst));
      let buf = Bytes.create 65536 in
      let read () =
        match Unix.read fd buf 0 65536 with
        | n -> n
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            Alcotest.fail "no EOF within 10 s"
      in
      (* The head and the first 64 KB of body, then the file shrinks. *)
      let acc = Buffer.create 131072 in
      let rec first () =
        match Helpers.Raw.find_head_end (Buffer.contents acc) 0 with
        | Some e when Buffer.length acc - e >= 65536 -> e
        | _ -> (
            match read () with
            | 0 -> Alcotest.fail "closed before 64 KB of body"
            | n ->
                Buffer.add_subbytes acc buf 0 n;
                first ())
      in
      let head_end = first () in
      Unix.truncate path (size / 2);
      let status, _, headers =
        Helpers.Raw.parse_head (Buffer.sub acc 0 head_end)
      in
      Alcotest.(check int) "200" 200 status;
      Alcotest.(check (option string)) "advertised length"
        (Some (string_of_int size))
        (List.assoc_opt "content-length" headers);
      (* Count body bytes to EOF; any byte but 'x' belongs to a second
         response. *)
      let foreign = ref 0 in
      let note s off n =
        for i = off to off + n - 1 do
          if Bytes.get s i <> 'x' then incr foreign
        done
      in
      let first_body = Buffer.length acc - head_end in
      note (Buffer.to_bytes acc) head_end first_body;
      let rec drain total =
        match read () with
        | 0 -> total
        | n ->
            note buf 0 n;
            drain (total + n)
      in
      let body = drain first_body in
      Alcotest.(check bool)
        (Printf.sprintf "EOF before Content-Length (%d of %d body bytes)" body
           size)
        true (body < size);
      Alcotest.(check int) "no second status line in the body" 0 !foreign)

(* ------------------------------------------------------------------ *)
(* Slices checked against their buffers                                *)
(* ------------------------------------------------------------------ *)

let raises_invalid f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

(* Nothing a socketpair's writer sent: its reader would block. *)
let nothing_sent r =
  Unix.set_nonblock r;
  match Unix.read r (Bytes.create 16) 0 16 with
  | _ -> false
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> true

let with_socketpair f =
  let w, r = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close w;
      Unix.close r)
    (fun () -> f w r)

(* [off] and [len] are public mutable fields: a slice stretched past
   its buffer is refused before any byte of the gather is written. *)
let test_writev_checks_slices () =
  with_socketpair (fun w r ->
      let long = Iovec.slice (Iovec.of_string "0123456789") in
      long.Iovec.len <- 4096;
      Alcotest.(check bool) "writev refuses an over-long slice" true
        (raises_invalid (fun () ->
             Iovec.writev w [| Iovec.slice (Iovec.of_string "head"); long |]));
      let before = Iovec.slice ~off:2 (Iovec.of_string "0123456789") in
      before.Iovec.off <- -2;
      Alcotest.(check bool) "negative offset refused" true
        (raises_invalid (fun () -> Iovec.writev w [| before |]));
      Alcotest.(check bool) "nothing reached the socket" true (nothing_sent r))

(* An unmapped buffer reads as empty, so a slice still over it fails
   the bounds check instead of reading freed address space; a second
   unmap is refused. *)
let test_unmapped_slice_refused () =
  let path = Filename.temp_file "flash_unmap" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path (patterned 8192);
      let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
      let buf = Iovec.map fd 8192 in
      Unix.close fd;
      let s = Iovec.slice buf in
      Alcotest.(check string) "mapped bytes"
        (String.sub (patterned 8192) 0 32)
        (Iovec.sub_string buf ~off:0 ~len:32);
      Iovec.unmap buf;
      Alcotest.(check int) "emptied" 0 (Bigarray.Array1.dim buf);
      with_socketpair (fun w r ->
          Alcotest.(check bool) "slice over an unmapped buffer refused" true
            (raises_invalid (fun () -> Iovec.writev w [| s |]));
          Alcotest.(check bool) "nothing sent" true (nothing_sent r));
      Alcotest.(check bool) "second unmap refused" true
        (raises_invalid (fun () -> Iovec.unmap buf));
      Alcotest.(check bool) "a heap buffer is not a mapping" true
        (raises_invalid (fun () -> Iovec.unmap (Iovec.create 16))))

(* A cached mapping truncated in place must not kill the server: only
   the kernel reads a mapping, so a send past the file's new end fails
   that connection's [writev] rather than raising SIGBUS in the server.
   The server runs in a forked child, so a crash fails this test rather
   than the suite. *)
let test_shrunk_mapping_survived () =
  let docroot =
    make_docroot [ ("big.bin", patterned big); ("other.txt", "still here") ]
  in
  let config = Server.default_config ~docroot in
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      (try
         let server = Server.start config in
         let line = Printf.sprintf "%d\n" (Server.port server) in
         ignore (Unix.write_substring wr line 0 (String.length line));
         Server.run server
       with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let port = int_of_string (input_line ic) in
      close_in ic;
      let alive () = fst (Unix.waitpid [ Unix.WNOHANG ] pid) = 0 in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        (fun () ->
          let get path = Client.get ~host:"127.0.0.1" ~port path in
          let r = get "/big.bin" in
          Alcotest.(check int) "cached 200" 200 r.Client.status;
          Unix.truncate (Filename.concat docroot "big.bin") 100;
          (try ignore (get "/big.bin")
           with Failure _ | Unix.Unix_error _ -> ());
          Alcotest.(check bool) "server survived the shrink" true (alive ());
          let r = get "/other.txt" in
          Alcotest.(check int) "another path answers" 200 r.Client.status;
          Alcotest.(check string) "its body" "still here" r.Client.body;
          Alcotest.(check bool) "still alive" true (alive ()))

(* A miss on a file of [File_cache.copy_limit] bytes is charged its
   body once, at fill, on top of its four headers; a miss on a larger,
   mapped file only its headers.  Both sizes have five decimal and five
   hex digits, so their headers render to the same length and the
   difference is the copy.  A hit then costs one writev and copies
   nothing.  One keep-alive session carries every request, so it stays
   on one MP child or shard, whose own counters it reads. *)
let test_fill_copies_once mode () =
  let docroot =
    make_docroot
      [
        ("small.bin", patterned File_cache.copy_limit);
        ("large.bin", patterned big);
      ]
  in
  let config = { (Server.default_config ~docroot) with Server.mode } in
  with_config_server config (fun _ port ->
      let s = Helpers.Raw.open_session ~port in
      Fun.protect
        ~finally:(fun () -> Helpers.Raw.close_session s)
        (fun () ->
          let measure path =
            let r, writev, copied =
              Test_http11.measure_on s ~request:("GET", path, [])
            in
            Alcotest.(check int) (path ^ " 200") 200 r.Helpers.Raw.status;
            (writev, copied)
          in
          let _, small = measure "/small.bin" in
          let _, large = measure "/large.bin" in
          Alcotest.(check int) "a small-file miss adds its size"
            File_cache.copy_limit (small - large);
          let writev, copied = measure "/small.bin" in
          Alcotest.(check int) "a hit is one writev" 1 writev;
          Alcotest.(check int) "zero bytes copied" 0 copied))

(* A cached small file truncated in place: the cache holds a read copy,
   so a hit still sends every cached byte under the cached
   Content-Length (a mapping past the new end of file would fail the
   send and close the connection).  One keep-alive session stays on
   the MP child or shard whose cache its first request filled. *)
let test_truncated_copy mode () =
  let contents = patterned 20_000 in
  let docroot = make_docroot [ ("t.bin", contents) ] in
  let config = { (Server.default_config ~docroot) with Server.mode } in
  with_config_server config (fun _ port ->
      let s = Client.Session.connect ~host:"127.0.0.1" ~port () in
      Fun.protect
        ~finally:(fun () -> Client.Session.close s)
        (fun () ->
          let get () = Client.Session.request s "/t.bin" in
          let r = get () in
          Alcotest.(check int) "cached 200" 200 r.Client.status;
          Unix.truncate (Filename.concat docroot "t.bin") 100;
          let r = get () in
          Alcotest.(check int) "200 after the truncation" 200 r.Client.status;
          Alcotest.(check bool) "every cached byte" true
            (String.equal contents r.Client.body)))

let suite =
  [
    test_sendq_resumption;
    test_offset_slice_resumption;
    Alcotest.test_case "cache validates (mtime, size)" `Quick
      test_cache_validates_mtime_and_size;
    Alcotest.test_case "eviction releases mappings" `Quick
      test_eviction_releases_mappings;
    Alcotest.test_case "stale drop uncharges gauge" `Quick
      test_stale_drop_uncharges_gauge;
    Alcotest.test_case "server reports mapped bytes" `Quick
      test_server_reports_mapped_bytes;
    Alcotest.test_case "2.5 MB identical (AMPED)" `Quick
      (test_multi_mb_identical Server.Amped);
    Alcotest.test_case "2.5 MB identical (SPED)" `Quick
      (test_multi_mb_identical Server.Sped);
    Alcotest.test_case "2.5 MB identical (MP)" `Quick
      (test_multi_mb_identical (Server.Mp 2));
    Alcotest.test_case "2.5 MB identical (MT)" `Quick
      (test_multi_mb_identical (Server.Mt 2));
    Alcotest.test_case "pipelined 2.5 MB + small (AMPED)" `Quick
      (test_pipelined_large Server.Amped);
    Alcotest.test_case "pipelined 2.5 MB + small (MP)" `Quick
      (test_pipelined_large (Server.Mp 2));
    Alcotest.test_case "cached GET = 1 writev, 0 copies" `Quick
      test_cached_get_is_one_writev_zero_copies;
    Alcotest.test_case "MP consolidates send counters" `Quick
      test_mp_send_counters_consolidated;
    Alcotest.test_case "8 MB uncached file intact (AMPED)" `Quick
      (test_large_file_intact Server.Amped);
    Alcotest.test_case "8 MB uncached file intact (SPED)" `Quick
      (test_large_file_intact Server.Sped);
    Alcotest.test_case "8 MB uncached file intact (MP)" `Quick
      (test_large_file_intact (Server.Mp 2));
    Alcotest.test_case "8 MB uncached file intact (MT)" `Quick
      (test_large_file_intact (Server.Mt 2));
    Alcotest.test_case "pipelined 2.5 MB + small (SPED)" `Quick
      (test_pipelined_large Server.Sped);
    Alcotest.test_case "pipelined 2.5 MB + small (MT)" `Quick
      (test_pipelined_large (Server.Mt 2));
    Alcotest.test_case "pipelined 200/304/206/404 (AMPED)" `Quick
      (test_pipelined_small Server.Amped);
    Alcotest.test_case "pipelined 200/304/206/404 (SPED)" `Quick
      (test_pipelined_small Server.Sped);
    Alcotest.test_case "pipelined 200/304/206/404 (MP)" `Quick
      (test_pipelined_small (Server.Mp 2));
    Alcotest.test_case "pipelined 200/304/206/404 (MT)" `Quick
      (test_pipelined_small (Server.Mt 2));
    Alcotest.test_case "one wakeup per keep-alive GET (AMPED)" `Quick
      (test_one_wakeup_per_request Server.Amped);
    Alcotest.test_case "one wakeup per keep-alive GET (SPED)" `Quick
      (test_one_wakeup_per_request Server.Sped);
    Alcotest.test_case "one wakeup per keep-alive GET (MT)" `Quick
      (test_one_wakeup_per_request (Server.Mt 2));
    Alcotest.test_case "one wakeup per keep-alive GET (MP)" `Quick
      (test_one_wakeup_per_request (Server.Mp 2));
    Alcotest.test_case "shrunk streamed file closes (AMPED)" `Quick
      (test_streamed_file_shrinks Server.Amped);
    Alcotest.test_case "shrunk streamed file closes (SPED)" `Quick
      (test_streamed_file_shrinks Server.Sped);
    Alcotest.test_case "shrunk streamed file closes (MP)" `Quick
      (test_streamed_file_shrinks (Server.Mp 2));
    Alcotest.test_case "shrunk streamed file closes (MT)" `Quick
      (test_streamed_file_shrinks (Server.Mt 2));
    Alcotest.test_case "writev checks slices against buffers" `Quick
      test_writev_checks_slices;
    Alcotest.test_case "slice over an unmapped buffer refused" `Quick
      test_unmapped_slice_refused;
    Alcotest.test_case "server survives a shrunk cached mapping" `Quick
      test_shrunk_mapping_survived;
    Alcotest.test_case "a small-file fill copies once (AMPED)" `Quick
      (test_fill_copies_once Server.Amped);
    Alcotest.test_case "a small-file fill copies once (SPED)" `Quick
      (test_fill_copies_once Server.Sped);
    Alcotest.test_case "a small-file fill copies once (MP)" `Quick
      (test_fill_copies_once (Server.Mp 2));
    Alcotest.test_case "a small-file fill copies once (MT)" `Quick
      (test_fill_copies_once (Server.Mt 2));
    Alcotest.test_case "truncated cached copy served whole (AMPED)" `Quick
      (test_truncated_copy Server.Amped);
    Alcotest.test_case "truncated cached copy served whole (SPED)" `Quick
      (test_truncated_copy Server.Sped);
    Alcotest.test_case "truncated cached copy served whole (MP)" `Quick
      (test_truncated_copy (Server.Mp 2));
    Alcotest.test_case "truncated cached copy served whole (MT)" `Quick
      (test_truncated_copy (Server.Mt 2));
  ]
