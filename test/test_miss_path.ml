(* The miss path: mincore residency and whose answer to trust, the
   read stubs, leased bodies (a qcheck property over real files, copies
   below the copy limit and mappings above it, interleaving fills,
   hits, evictions, partial writes, drains and closes), the AMPED loop
   filling a resident miss on a known path without a helper, files too
   large to cache staying with the helpers, and evicted mappings
   leaving the address space at their last send. *)

module Server = Flash_live.Server
module Client = Flash_live.Client
module Sendq = Flash_live.Sendq
module File_cache = Flash_live.File_cache

let write_file = Test_live.write_file

let patterned ~seed n =
  String.init n (fun i ->
      Char.chr ((i * 31 + (seed * 101) + (i lsr 8)) land 0xff))

let temp_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

(* Lines of /proc/self/maps naming a file under [dir]: one per live
   mapping of it. *)
let maps_under dir =
  let ic = open_in "/proc/self/maps" in
  let n = ref 0 in
  (try
     while true do
       if Helpers.contains ~affix:dir (input_line ic) then incr n
     done
   with End_of_file -> ());
  close_in ic;
  !n

let have_proc_maps = Sys.file_exists "/proc/self/maps"

(* A fresh sparse file: [size] bytes of hole, never read. *)
let sparse_file path size =
  let flags = [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] in
  let fd = Unix.openfile path flags 0o644 in
  Unix.ftruncate fd size;
  Unix.close fd

(* fsync the file, then advise the kernel to drop its pages
   ([posix_fadvise(POSIX_FADV_DONTNEED)]). *)
external drop_cache : Unix.file_descr -> unit = "flash_test_drop_cache"

(* One raw non-blocking read of [fd]'s first [len] bytes
   ([preadv2(RWF_NOWAIT)]): [true] when the kernel returned them all. *)
external nowait_reads : Unix.file_descr -> int -> bool
  = "flash_test_nowait_reads"

(* Drop [path]'s pages from the page cache; [false] when the kernel
   kept them all (a filesystem that ignores the advice), or when a raw
   non-blocking read of them still gets the bytes, so a server read
   that gets them now is no fault of the server.  A refused read starts
   readahead, so the pages are dropped once more after it lands. *)
let drop_pages path size =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  let buf = Iovec.map fd size in
  let drop () =
    drop_cache fd;
    not (Iovec.resident buf)
  in
  let rec await_readahead tries =
    if tries > 0 && not (Iovec.resident buf) then begin
      Unix.sleepf 0.001;
      await_readahead (tries - 1)
    end
  in
  let dropped =
    drop ()
    && (not (nowait_reads fd size))
    && (await_readahead 1000;
        drop ())
  in
  Unix.close fd;
  Iovec.unmap buf;
  dropped

(* Drop [path]'s pages and, when they dropped, ask [refused] whether
   the read that needs them was refused, until one is.  A non-blocking
   read of a dropped page starts its readahead, and a fast or
   virtualised disk can finish that inside the read, at times for tens
   of reads in a row; a read that blocks is never refused.  So an
   answer from memory, the probe's or the server's, is retried, not
   taken as a verdict.  [Some true] at the first refusal, [Some false]
   once 10 reads the probe found refused were all served, [None] when
   1000 attempts pass with fewer (the pages would not drop, or the
   probe kept getting them). *)
let refused_after_drop path size refused =
  let rec attempt tries served =
    if served = 10 then Some false
    else if tries = 0 then None
    else if not (drop_pages path size) then attempt (tries - 1) served
    else if refused () then Some true
    else attempt (tries - 1) (served + 1)
  in
  attempt 1000 0

let copy_limit = File_cache.copy_limit

(* ------------------------------------------------------------------ *)
(* Residency and trust                                                 *)
(* ------------------------------------------------------------------ *)

let test_trust_check () =
  let trusted owner euid = File_cache.trusts_mincore ~owner ~euid in
  Alcotest.(check bool) "owner = euid" true (trusted 1000 1000);
  Alcotest.(check bool) "root" true (trusted 1000 0);
  Alcotest.(check bool) "root's own file" true (trusted 0 0);
  Alcotest.(check bool) "someone else's file" false (trusted 0 1000);
  Alcotest.(check bool) "another user's file" false (trusted 1001 1000)

let with_map path size f =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  let buf = Iovec.map fd size in
  Unix.close fd;
  Fun.protect ~finally:(fun () -> Iovec.unmap buf) (fun () -> f buf)

let test_resident () =
  let dir = temp_dir "flash_resident" in
  let written = Filename.concat dir "written.bin" in
  write_file written (patterned ~seed:1 65536);
  with_map written 65536 (fun buf ->
      Alcotest.(check bool) "a freshly written file is resident" true
        (Iovec.resident buf));
  let sparse = Filename.concat dir "sparse.bin" in
  sparse_file sparse (1 lsl 20);
  with_map sparse (1 lsl 20) (fun buf ->
      Alcotest.(check bool) "a fresh sparse file is not" false
        (Iovec.resident buf));
  Alcotest.(check bool) "an empty buffer is" true
    (Iovec.resident (Iovec.create 0));
  Sys.remove written;
  Sys.remove sparse;
  Unix.rmdir dir

(* A read copy: the file's bytes up to its end, [None] from the
   cache-only read when the file is shorter than asked, and an empty
   buffer once freed (a second free refused). *)
let test_read_stubs () =
  let dir = temp_dir "flash_read" in
  let path = Filename.concat dir "f.bin" in
  let contents = patterned ~seed:5 10_000 in
  write_file path contents;
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  let whole name buf =
    Alcotest.(check string) name contents
      (Iovec.sub_string buf ~off:0 ~len:(Bigarray.Array1.dim buf))
  in
  let copy = Iovec.read fd 12_000 in
  Alcotest.(check int) "a read past EOF stops at EOF" 10_000
    (Bigarray.Array1.dim copy);
  whole "its bytes" copy;
  Iovec.free copy;
  Alcotest.(check int) "freed" 0 (Bigarray.Array1.dim copy);
  Alcotest.(check bool) "second free refused" true
    (match Iovec.free copy with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "a GC-owned buffer is not a read copy" true
    (match Iovec.free (Iovec.of_string "x") with
    | () -> false
    | exception Invalid_argument _ -> true);
  let cached = Iovec.read_cached ~trust_mincore:true fd in
  Alcotest.(check bool) "a size past EOF is not cached" true
    (cached 12_000 = None);
  (match cached 10_000 with
  | None -> Alcotest.fail "a freshly written file reads from the cache"
  | Some buf ->
      whole "cached bytes" buf;
      Iovec.free buf);
  Unix.close fd;
  (match
     refused_after_drop path 10_000 (fun () ->
         let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
         let cached = Iovec.read_cached ~trust_mincore:true fd 10_000 in
         Unix.close fd;
         Option.iter Iovec.free cached;
         cached = None)
   with
  | Some refused ->
      Alcotest.(check bool) "a dropped file is not cached" true refused
  | None ->
      print_endline "the kernel kept f.bin in memory: dropped case not checked");
  Sys.remove path;
  Unix.rmdir dir

(* Where mapping fails, [map_body] reads a body of at most [max_copy]
   bytes instead and refuses a larger one.  On a write-only descriptor
   both the mapping (EACCES) and the read (EBADF) fail, so the error
   names the call that was tried last. *)
let test_map_body_bounds_its_copy () =
  let dir = temp_dir "flash_bound" in
  let path = Filename.concat dir "f.bin" in
  let size = 2 * copy_limit in
  write_file path (patterned ~seed:6 size);
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  let tried max_copy =
    match File_cache.map_body ~max_copy fd ~size with
    | _ -> "nothing"
    | exception Unix.Unix_error (_, call, _) -> call
  in
  Alcotest.(check string) "a body above max_copy is never read" "mmap"
    (tried (size - 1));
  Alcotest.(check string) "one of at most max_copy is" "pread" (tried size);
  Unix.close fd;
  Sys.remove path;
  Unix.rmdir dir

(* ------------------------------------------------------------------ *)
(* Leases: a property over real copied and mapped files               *)
(* ------------------------------------------------------------------ *)

(* Five files of odd sizes, three cached as read copies and two above
   the copy limit as mappings.  The cache holds about two of them and
   shares a 90,000-byte budget, so fills evict, and filling the
   100,000-byte file sheds that entry inside its own insert. *)
let sizes = [| 1000; 5000; 60_000; 70_000; 100_000 |]

let lease_files =
  lazy
    (let dir = temp_dir "flash_lease" in
     let paths =
       Array.mapi
         (fun i n ->
           let p = Filename.concat dir (Printf.sprintf "f%d.bin" i) in
           write_file p (patterned ~seed:i n);
           p)
         sizes
     in
     (dir, paths, Array.mapi (fun i n -> patterned ~seed:i n) sizes))

(* What a queued response sends of its entry. *)
type send = Full | Not_modified | Head_only

type op =
  | Fill of int * int * send
      (* file, queue: a miss builds, inserts and sends *)
  | Hit of int * int * send  (* file, queue: a cached entry is sent *)
  | Advance of int * int  (* queue, at most this many bytes written *)
  | Drain of int
  | Close of int  (* the connection dies: the queue is discarded *)

let show_send = function
  | Full -> "200"
  | Not_modified -> "304"
  | Head_only -> "HEAD"

let show_op = function
  | Fill (f, q, k) -> Printf.sprintf "Fill(%d,%d,%s)" f q (show_send k)
  | Hit (f, q, k) -> Printf.sprintf "Hit(%d,%d,%s)" f q (show_send k)
  | Advance (q, n) -> Printf.sprintf "Advance(%d,%d)" q n
  | Drain q -> Printf.sprintf "Drain %d" q
  | Close q -> Printf.sprintf "Close %d" q

let arb_ops =
  let nf = Array.length sizes - 1 in
  let op =
    QCheck.Gen.(
      let send = frequencyl [ (3, Full); (1, Not_modified); (1, Head_only) ] in
      frequency
        [
          ( 3,
            map3 (fun f q k -> Fill (f, q, k)) (int_bound nf) (int_bound 1) send
          );
          ( 3,
            map3 (fun f q k -> Hit (f, q, k)) (int_bound nf) (int_bound 1) send
          );
          (3, map2 (fun q n -> Advance (q, n)) (int_bound 1) (int_bound 120_000));
          (1, map (fun q -> Drain q) (int_bound 1));
          (1, map (fun q -> Close q) (int_bound 1));
        ])
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 40) op)

(* One entry the property made: its body and four headers, and how many
   queued slices of it the model says are unsent. *)
type made = {
  entry : File_cache.entry;
  size : int;
  mutable queued : int;
}

let buffers (e : File_cache.entry) =
  [
    e.File_cache.body; e.File_cache.header_keep; e.File_cache.header_close;
    e.File_cache.header_304_keep; e.File_cache.header_304_close;
  ]

(* A connection: its send queue, a socketpair, the model of its items
   (the entry a slice is a window of, bytes left), and the bytes it
   should and did deliver. *)
type conn = {
  q : Sendq.t;
  w : Unix.file_descr;
  r : Unix.file_descr;
  items : (made * int ref) Queue.t;
  expected : Buffer.t;
  received : Buffer.t;
}

(* The four headers of file [i], as the server renders them. *)
let lease_headers i =
  let etag = Http.Etag.make ~mtime:1. ~size:sizes.(i) () in
  ( etag,
    Http.Response.cached ~date:1_760_000_000. ~last_modified:1.
      ~content_type:"application/octet-stream" ~content_length:sizes.(i)
      ~ok_extra:[ ("ETag", etag); ("Accept-Ranges", "bytes") ]
      ~not_modified_extra:[ ("ETag", etag) ] ~align:32 () )

let lease_prop ops =
  let dir, paths, contents = Lazy.force lease_files in
  let cache =
    File_cache.create
      ~budget:(Flash_cache.Budget.create ~bytes:90_000)
      ~capacity_bytes:95_000 ()
  in
  let key i = "/f" ^ string_of_int i in
  let cached = Array.make (Array.length sizes) None in
  let made = ref [] in
  let conns =
    Array.init 2 (fun _ ->
        let w, r = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.set_nonblock w;
        Unix.set_nonblock r;
        {
          q = Sendq.create ();
          w;
          r;
          items = Queue.create ();
          expected = Buffer.create 4096;
          received = Buffer.create 4096;
        })
  in
  let scratch = Bytes.create 65536 in
  let rec receive c =
    match Unix.read c.r scratch 0 65536 with
    | n when n > 0 ->
        Buffer.add_subbytes c.received scratch 0 n;
        receive c
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  (* Queue one response of [m] as the server does: the header, and the
     body only for a full GET.  The model counts a slice per item. *)
  let push c i m send =
    let e = m.entry in
    let header =
      match send with
      | Full | Head_only -> e.File_cache.header_keep
      | Not_modified -> e.File_cache.header_304_keep
    in
    let body = send = Full in
    Sendq.push_entry c.q e ~header ~body;
    let hlen = Bigarray.Array1.dim header in
    Queue.push (m, ref hlen) c.items;
    m.queued <- m.queued + 1;
    Buffer.add_string c.expected (Iovec.sub_string header ~off:0 ~len:hlen);
    if body then begin
      Queue.push (m, ref m.size) c.items;
      m.queued <- m.queued + 1;
      Buffer.add_string c.expected contents.(i)
    end
  in
  (* Write at most [n] bytes of the gathered head through the kernel,
     which reads the bodies, then advance queue and model alike. *)
  let advance c n =
    let budget = ref n in
    let cut =
      Array.map
        (fun (s : Iovec.slice) ->
          let len = min s.Iovec.len !budget in
          budget := !budget - len;
          { s with Iovec.len })
        (Sendq.gather c.q)
    in
    let written =
      if Iovec.total_length cut = 0 then 0
      else
        try Iovec.writev c.w cut
        with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> 0
    in
    Sendq.advance c.q written;
    let left = ref written in
    while !left > 0 do
      let m, rem = Queue.peek c.items in
      let take = min !rem !left in
      rem := !rem - take;
      left := !left - take;
      if !rem = 0 then begin
        ignore (Queue.pop c.items);
        m.queued <- m.queued - 1
      end
    done;
    receive c;
    written
  in
  let rec drain c =
    if (not (Sendq.is_empty c.q)) && advance c max_int > 0 then drain c
  in
  let in_cache m =
    let r = ref false in
    Array.iteri
      (fun i c ->
        match c with
        | Some m' when m' == m && File_cache.resident cache (key i) -> r := true
        | _ -> ())
      cached;
    !r
  in
  (* An entry with a slice queued or a place in the cache reads whole,
     headers and body; one with neither is freed or unmapped, and its
     five windows read empty. *)
  let leases_hold () =
    List.for_all
      (fun m ->
        let dims = List.map Bigarray.Array1.dim (buffers m.entry) in
        if m.queued > 0 || in_cache m then
          List.hd dims = m.size && List.for_all (fun d -> d > 0) (List.tl dims)
        else List.for_all (fun d -> d = 0) dims)
      !made
  in
  let step = function
    | Fill (i, ci, send) ->
        let fd = Unix.openfile paths.(i) [ Unix.O_RDONLY ] 0 in
        let etag, headers = lease_headers i in
        let body, lease =
          File_cache.map_body
            ~head:(String.length headers.Http.Response.text)
            fd ~size:sizes.(i)
        in
        Unix.close fd;
        let entry =
          File_cache.make_entry ~body ~lease ~headers ~mtime:1.
            ~size:sizes.(i) ~etag ~encoding:None
        in
        let m = { entry; size = sizes.(i); queued = 0 } in
        made := m :: !made;
        let lease = Option.get entry.File_cache.mapped in
        File_cache.acquire lease;
        File_cache.insert cache (key i) entry;
        cached.(i) <- Some m;
        push conns.(ci) i m send;
        File_cache.release lease
    | Hit (i, ci, send) -> (
        match File_cache.find_trusted cache (key i) with
        | None -> ()
        | Some e ->
            let m =
              match cached.(i) with
              | Some m when m.entry == e -> m
              | _ -> failwith "hit on an entry the model does not know"
            in
            let lease = Option.get e.File_cache.mapped in
            File_cache.acquire lease;
            push conns.(ci) i m send;
            File_cache.release lease)
    | Advance (ci, n) -> ignore (advance conns.(ci) n)
    | Drain ci -> drain conns.(ci)
    | Close ci ->
        let c = conns.(ci) in
        let sent = Buffer.length c.received in
        if Buffer.sub c.expected 0 sent <> Buffer.contents c.received then
          failwith "bytes sent before the close differ from the entries";
        Sendq.clear c.q;
        Queue.iter (fun (m, _) -> m.queued <- m.queued - 1) c.items;
        Queue.clear c.items;
        Buffer.truncate c.expected sent
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun c ->
          Unix.close c.w;
          Unix.close c.r)
        conns)
    (fun () ->
      let ok =
        List.for_all
          (fun op ->
            step op;
            leases_hold ())
          ops
      in
      Array.iter drain conns;
      let bytes_match =
        Array.for_all
          (fun c -> Buffer.contents c.expected = Buffer.contents c.received)
          conns
      in
      (* Only the cache's mappings stay: the copies map nothing. *)
      let resident_mappings =
        List.length
          (List.filter
             (fun i -> sizes.(i) > copy_limit && File_cache.resident cache (key i))
             (List.init (Array.length sizes) Fun.id))
      in
      let only_cache =
        (not have_proc_maps) || maps_under dir = resident_mappings
      in
      let drained = leases_hold () in
      File_cache.clear cache;
      let all_freed =
        List.for_all
          (fun m ->
            List.for_all (fun b -> Bigarray.Array1.dim b = 0) (buffers m.entry))
          !made
        && ((not have_proc_maps) || maps_under dir = 0)
      in
      ok && bytes_match && only_cache && drained && all_freed)

let test_lease_property =
  Helpers.qcheck_case ~count:150
    ~name:"leased mappings unmap once, after their last lease"
    arb_ops lease_prop

(* ------------------------------------------------------------------ *)
(* The AMPED gate, live                                                *)
(* ------------------------------------------------------------------ *)

let files size = (patterned ~seed:11 size, patterned ~seed:12 size)
let file_a, file_b = files 8192

(* A file above the copy limit, cached as a mapping. *)
let big = 96 * 1024

(* A cache that holds one of the two files, a.bin and b.bin, of [size]
   bytes each (an entry weighs the body and about 1 KB of headers). *)
let one_file_config ?slow_read ?(mode = Server.Amped) ?(size = 8192) () =
  let docroot = temp_dir "flash_gate" in
  let a, b = files size in
  write_file (Filename.concat docroot "a.bin") a;
  write_file (Filename.concat docroot "b.bin") b;
  ( docroot,
    {
      (Server.default_config ~docroot) with
      Server.mode;
      file_cache_bytes = size + 3808;
      slow_read;
    } )

let await_jobs server n =
  Test_status.await_stats server (fun s -> s.Server.helper_jobs >= n)

let check_body name want (r : Client.response) =
  Alcotest.(check int) (name ^ " 200") 200 r.Client.status;
  Alcotest.(check bool) (name ^ " bytes") true (String.equal want r.Client.body)

(* A, B, A: the second A misses (B evicted it) on a path a helper has
   already found cacheable, its pages are in core, so the loop fills it
   itself.  With [slow_read] (cold media) the answer is "not resident"
   and every miss goes to a helper. *)
let test_aba ?slow_read ~jobs () =
  let _, config = one_file_config ?slow_read () in
  Test_status.with_config config (fun server port ->
      let get = Test_status.get port in
      check_body "A" file_a (get "/a.bin");
      check_body "B" file_b (get "/b.bin");
      check_body "A again" file_a (get "/a.bin");
      let s = await_jobs server jobs in
      Alcotest.(check int) "misses" 3 s.Server.cache_misses;
      Alcotest.(check int) "helper jobs" jobs s.Server.helper_jobs)

(* Each shard keeps its own known paths: one keep-alive session rides
   one shard, and pays as AMPED does. *)
let test_aba_sharded ?slow_read ~jobs () =
  let _, config = one_file_config ?slow_read ~mode:(Server.Sharded 2) () in
  Test_status.with_config config (fun server port ->
      let s = Client.Session.connect ~host:"127.0.0.1" ~port () in
      Fun.protect
        ~finally:(fun () -> Client.Session.close s)
        (fun () ->
          check_body "A" file_a (Client.Session.request s "/a.bin");
          check_body "B" file_b (Client.Session.request s "/b.bin");
          check_body "A again" file_a (Client.Session.request s "/a.bin"));
      let st = await_jobs server jobs in
      Alcotest.(check int) "helper jobs" jobs st.Server.helper_jobs)

(* A known path renamed over by a fresh sparse file above the copy
   limit: once its entry is gone, the loop's [mincore] probe finds pages
   not in core, so a helper serves it — the sparse file's zeros, not
   the old bytes.  (A non-blocking read of a small sparse file returns
   its holes at once, so that one the loop fills itself.) *)
let test_sparse_rename () =
  let docroot, config = one_file_config ~size:big () in
  let a, b = files big in
  Test_status.with_config config (fun server port ->
      let get = Test_status.get port in
      check_body "A" a (get "/a.bin");
      check_body "B evicts A" b (get "/b.bin");
      let tmp = Filename.concat docroot "a.tmp" in
      sparse_file tmp big;
      Unix.rename tmp (Filename.concat docroot "a.bin");
      check_body "renamed A" (String.make big '\000') (get "/a.bin");
      let s = await_jobs server 3 in
      Alcotest.(check int) "helper served it" 3 s.Server.helper_jobs)

(* A small file dropped from the page cache after its entry was
   evicted: the loop's non-blocking read would need the disk, so a
   helper serves the miss.  A job is dispatched before the response
   goes out, so the count is current when [get] returns. *)
let test_dropped_small_file () =
  let docroot, config = one_file_config () in
  Test_status.with_config config (fun server port ->
      let get = Test_status.get port in
      let jobs () = (Server.stats server).Server.helper_jobs in
      check_body "A" file_a (get "/a.bin");
      check_body "B evicts A" file_b (get "/b.bin");
      match
        refused_after_drop (Filename.concat docroot "a.bin") 8192 (fun () ->
            (* One job each for A's and B's first lookups. *)
            Alcotest.(check int) "jobs before A" 2 (jobs ());
            check_body "A from disk" file_a (get "/a.bin");
            match jobs () with
            | 3 -> true
            | n ->
                (* Served from memory, with no job; B, still known and
                   resident, evicts A for the next attempt with none. *)
                Alcotest.(check int) "A from memory" 2 n;
                check_body "B again" file_b (get "/b.bin");
                false)
      with
      | Some _ -> Alcotest.(check int) "helper served it" 3 (jobs ())
      | None ->
          print_endline "the kernel kept a.bin in memory: helper case not checked")

(* A FIFO swapped in for a known path, with no writer: the loop's
   non-blocking open returns at once, sees it is not a regular file,
   forgets the path and hands the miss to a helper, which answers 404
   as for any non-regular file.  The loop keeps serving. *)
let test_fifo_swapped_in () =
  let docroot, config = one_file_config () in
  Test_status.with_config config (fun _server port ->
      let get = Test_status.get port in
      check_body "A" file_a (get "/a.bin");
      check_body "B evicts A" file_b (get "/b.bin");
      let a = Filename.concat docroot "a.bin" in
      Sys.remove a;
      Unix.mkfifo a 0o644;
      let fd = Helpers.Raw.connect ~port in
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
      Helpers.Raw.write_request fd ~meth:"GET" ~target:"/a.bin" ~headers:[]
        ~close:true;
      let acc = Buffer.create 256 in
      (try Helpers.Raw.read_until_close fd acc
       with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
         Alcotest.fail "no answer within 5 s: the loop blocked on the FIFO");
      Unix.close fd;
      let status, _, _ = Helpers.Raw.parse_head (Buffer.contents acc) in
      Alcotest.(check int) "FIFO answered 404" 404 status;
      check_body "B still served" file_b (get "/b.bin"))

(* ------------------------------------------------------------------ *)
(* Files too large to cache                                           *)
(* ------------------------------------------------------------------ *)

(* A file above [max_cached_file] goes to a helper on every miss and is
   never filled by the loop, since asking [mincore] about all of it
   would stall the loop in proportion to its size.  One keep-alive
   session rides one shard. *)
let test_large_file_jobs mode () =
  let docroot = temp_dir "flash_large" in
  let path = Filename.concat docroot "big.bin" in
  let body = patterned ~seed:3 (8 * 1024 * 1024) in
  write_file path body;
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Test_status.with_config
    { (Server.default_config ~docroot) with Server.mode }
    (fun server port ->
      let s = Client.Session.connect ~host:"127.0.0.1" ~port () in
      Fun.protect
        ~finally:(fun () -> Client.Session.close s)
        (fun () ->
          check_body "first" body (Client.Session.request s "/big.bin");
          check_body "second" body (Client.Session.request s "/big.bin"));
      let st = await_jobs server 2 in
      Alcotest.(check int) "a helper job per fetch" 2 st.Server.helper_jobs)

(* A known path that grew too large to cache: the loop's inline attempt
   sees the size in its fstat and forgets the path without mapping it,
   so that miss and the next go to a helper, and only the first of them
   tried the loop (one "fill" span). *)
let test_known_path_grows () =
  let docroot, config = one_file_config () in
  let config = { config with Server.max_cached_file = 32 * 1024 } in
  Test_status.with_config config (fun server port ->
      let get = Test_status.get port in
      check_body "A" file_a (get "/a.bin");
      check_body "B evicts A" file_b (get "/b.bin");
      let grown = patterned ~seed:13 big in
      write_file (Filename.concat docroot "a.bin") grown;
      check_body "grown A" grown (get "/a.bin");
      check_body "grown A again" grown (get "/a.bin");
      let st = await_jobs server 4 in
      Alcotest.(check int) "a helper job per miss" 4 st.Server.helper_jobs;
      let rec traces tries =
        let snap = Server.trace_snapshot server in
        if List.length snap >= 4 || tries = 0 then snap
        else begin
          Thread.delay 0.05;
          traces (tries - 1)
        end
      in
      let fills =
        List.fold_left
          (fun n (d : Obs.Trace.trace_data) ->
            n
            + List.length
                (List.filter
                   (fun (sp : Obs.Trace.span_data) ->
                     String.equal sp.Obs.Trace.name "fill")
                   d.Obs.Trace.spans))
          0 (traces 60)
      in
      Alcotest.(check int) "one inline attempt" 1 fills)

(* A prefetch that finds a file too large to cache inserts nothing, so
   it counts as failed. *)
let test_prefetch_too_large () =
  let docroot = temp_dir "flash_prefetch" in
  let path = Filename.concat docroot "big.bin" in
  write_file path (patterned ~seed:4 big);
  let log = Filename.concat docroot "access.log" in
  let oc = open_out log in
  for _ = 1 to 5 do
    Printf.fprintf oc
      "127.0.0.1 - - [08/Aug/2026:10:00:00 +0000] \"GET /big.bin HTTP/1.1\" \
       200 %d %s\n"
      big path
  done;
  close_out oc;
  let config =
    {
      (Server.default_config ~docroot) with
      Server.max_cached_file = 32 * 1024;
      warm = true;
      warm_log = Some log;
      warm_interval = 0.2;
    }
  in
  Test_status.with_config config (fun _ port ->
      let value name =
        Test_status.(to_int (row (get_status_json port) name))
      in
      let rec failed tries =
        let n = value "flash_warm_prefetch_failed_total" in
        if n >= 1 || tries = 0 then n
        else begin
          Thread.delay 0.05;
          failed (tries - 1)
        end
      in
      Alcotest.(check bool) "the prefetch failed" true (failed 100 >= 1);
      Alcotest.(check int) "none completed" 0
        (value "flash_warm_prefetch_completed_total");
      Alcotest.(check int) "nothing cached" 0
        Test_status.(
          to_int
            (row (get_status_json port)
               ~labels:[ ("cache", "file") ]
               "flash_cache_entries")))

(* ------------------------------------------------------------------ *)
(* Mapping lifetime, live                                              *)
(* ------------------------------------------------------------------ *)

(* Twice through 24 files, three times the cache: evicted files must
   leave the address space at their last send, so the docroot's
   mappings number at most the cache's entries plus a response that may
   still be in flight.  Files of at most the copy limit are read copies
   and map nothing. *)
let test_mapping_lifetime ~size mode () =
  if have_proc_maps then begin
    let docroot = temp_dir "flash_lifetime" in
    let names = List.init 24 (Printf.sprintf "f%02d.bin") in
    List.iteri
      (fun i n ->
        write_file (Filename.concat docroot n) (patterned ~seed:i size))
      names;
    let config =
      {
        (Server.default_config ~docroot) with
        Server.mode;
        file_cache_bytes = 8 * size;
      }
    in
    Test_status.with_config config (fun server port ->
        for _ = 1 to 2 do
          List.iteri
            (fun i n ->
              check_body n (patterned ~seed:i size)
                (Test_status.get port ("/" ^ n)))
            names
        done;
        ignore
          (Test_status.await_stats server (fun s ->
               s.Server.cache_misses >= 48));
        let j = Test_status.get_status_json port in
        let entries =
          Test_status.to_int
            (Test_status.row j
               ~labels:[ ("cache", "file") ]
               "flash_cache_entries")
        in
        let maps = maps_under docroot in
        let most = if size > copy_limit then entries + 1 else 0 in
        Alcotest.(check bool)
          (Printf.sprintf "%d docroot mappings for %d entries" maps entries)
          true
          (entries > 0 && entries < 24 && maps <= most))
  end

let suite =
  [
    Alcotest.test_case "mincore trust check" `Quick test_trust_check;
    Alcotest.test_case "Iovec.resident" `Quick test_resident;
    Alcotest.test_case "Iovec.read and read_cached" `Quick test_read_stubs;
    test_lease_property;
    Alcotest.test_case "A, B, A costs 2 helper jobs" `Quick (test_aba ~jobs:2);
    Alcotest.test_case "A, B, A with slow_read costs 3" `Quick
      (test_aba ~slow_read:(fun _ -> ()) ~jobs:3);
    Alcotest.test_case "A, B, A per shard (sharded 2)" `Quick
      (test_aba_sharded ~jobs:2);
    Alcotest.test_case "A, B, A per shard with slow_read" `Quick
      (test_aba_sharded ~slow_read:(fun _ -> ()) ~jobs:3);
    Alcotest.test_case "sparse file renamed over a known path" `Quick
      test_sparse_rename;
    Alcotest.test_case "small file dropped from the page cache" `Quick
      test_dropped_small_file;
    Alcotest.test_case "FIFO swapped in for a known path" `Quick
      test_fifo_swapped_in;
    Alcotest.test_case "evicted mappings unmapped (AMPED)" `Quick
      (test_mapping_lifetime ~size:big Server.Amped);
    Alcotest.test_case "evicted mappings unmapped (MT 2)" `Quick
      (test_mapping_lifetime ~size:big (Server.Mt 2));
    Alcotest.test_case "small files leave no mapping (AMPED)" `Quick
      (test_mapping_lifetime ~size:8192 Server.Amped);
    Alcotest.test_case "small files leave no mapping (MT 2)" `Quick
      (test_mapping_lifetime ~size:8192 (Server.Mt 2));
    Alcotest.test_case "an 8 MB file costs a job per fetch (AMPED)" `Quick
      (test_large_file_jobs Server.Amped);
    Alcotest.test_case "an 8 MB file costs a job per fetch (sharded 2)" `Quick
      (test_large_file_jobs (Server.Sharded 2));
    Alcotest.test_case "a known path grown too large is forgotten" `Quick
      test_known_path_grows;
    Alcotest.test_case "a prefetch too large to cache fails" `Quick
      test_prefetch_too_large;
    Alcotest.test_case "map_body bounds its fallback copy" `Quick
      test_map_body_bounds_its_copy;
  ]
