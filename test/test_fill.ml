(* Cache fills and the leases on their headers.

   A fill builds an entry as one block (its four headers, then the
   body) or as a mapping with one header buffer; a 200's header rides on
   its body slice's lease and a header with no body behind it takes
   the lease itself.  Live, in AMPED, SPED and MT 2, every response
   served from an entry a fill just rebuilt must be what
   [Http.Response.header_pair] (or [header], for a 206) renders plus
   the file's bytes, Date masked; and at the queue, a 304 and a HEAD
   waiting behind a full socket must survive their entry's eviction and
   leave its memory at their last byte. *)

module Server = Flash_live.Server
module Sendq = Flash_live.Sendq
module File_cache = Flash_live.File_cache
module Raw = Helpers.Raw

(* About 400 files of 3-6 KB, 1.8 MB in all: a 1 MB cache holds about
   half of them, so a random request refills a third of the time. *)
let n_files = 400

let extensions = [| ".html"; ".txt"; ".bin"; ".GIF" |]

let name i = Printf.sprintf "/f%03d%s" i extensions.(i mod 4)
(* File 0 is empty: its entry is a block of headers alone. *)
let content i =
  if i = 0 then ""
  else Test_miss_path.patterned ~seed:i (3072 + (i * 7919 mod 3073))

let site =
  lazy
    (let dir = Test_miss_path.temp_dir "flash_fill" in
     for i = 0 to n_files - 1 do
       Test_live.write_file (dir ^ name i) (content i)
     done;
     dir)

(* What the server should send for file [i], rendered by the
   per-response renderers with the file's own validators. *)
let expected config i ~status ~keep ~head ~range =
  let path = Lazy.force site ^ name i in
  let st = Unix.stat path in
  let mtime = st.Unix.st_mtime and size = st.Unix.st_size in
  let etag = Http.Etag.make ~mtime ~size () in
  let vary =
    if config.Server.gzip_precompressed then [ ("Vary", "Accept-Encoding") ]
    else []
  in
  let server = config.Server.server_name and date = 0. in
  let content_type = Http.Mime.of_path path in
  let pick (k, c) = if keep then k else c in
  match (status, range) with
  | 200, _ ->
      pick
        (Http.Response.header_pair ~status:Http.Status.Ok ~server ~date
           ~last_modified:mtime ~content_type ~content_length:size
           ~extra:([ ("ETag", etag); ("Accept-Ranges", "bytes") ] @ vary)
           ~align:32 ())
      ^ if head then "" else content i
  | 304, _ ->
      pick
        (Http.Response.header_pair ~status:Http.Status.Not_modified ~server
           ~date ~last_modified:mtime
           ~extra:([ ("ETag", etag) ] @ vary)
           ~align:32 ())
  | 206, Some (off, len) ->
      Http.Response.header ~status:Http.Status.Partial_content ~server ~date
        ~last_modified:mtime ~content_type ~content_length:len ~keep_alive:keep
        ~extra:
          ([
             ("Content-Range", Http.Range.content_range ~off ~len ~size);
             ("ETag", etag);
             ("Accept-Ranges", "bytes");
           ]
          @ vary)
        ~align:32 ()
      ^ String.sub (content i) off len
  | _ -> Alcotest.failf "no expected response for status %d" status

let etag_of i =
  let st = Unix.stat (Lazy.force site ^ name i) in
  Http.Etag.make ~mtime:st.Unix.st_mtime ~size:st.Unix.st_size ()

let check_bytes what want (r : Raw.response) =
  let want = Raw.mask_dates want and got = Raw.mask_dates r.Raw.raw in
  if not (String.equal want got) then
    Alcotest.failf "%s: got %S, want %S" what got want

(* The empty file, then 1,000 requests for random files on one
   keep-alive connection (and a fresh connection for each
   [Connection: close] one), cycling through a plain GET, a conditional
   GET answered 304, a HEAD, a [Connection: close] request of each of
   those kinds, and a Range.  Every miss past a path's first is a
   refill of an entry the cache has filled and evicted before. *)
let test_refills mode () =
  let docroot = Lazy.force site in
  let config =
    {
      (Server.default_config ~docroot) with
      Server.mode;
      file_cache_bytes = 1 lsl 20;
    }
  in
  let seen = Hashtbl.create n_files in
  Test_status.with_config config (fun server port ->
      let s = Raw.open_session ~port in
      let exchange k i ~range =
        Hashtbl.replace seen i ();
        let target = name i in
        let what = Printf.sprintf "request %d (%s)" k target in
        match k mod 5 with
        | 0 ->
            check_bytes what
              (expected config i ~status:200 ~keep:true ~head:false
                 ~range:None)
              (Raw.session_request s target)
        | 1 ->
            check_bytes what
              (expected config i ~status:304 ~keep:true ~head:false
                 ~range:None)
              (Raw.session_request s target
                 ~headers:[ ("If-None-Match", etag_of i) ])
        | 2 ->
            check_bytes what
              (expected config i ~status:200 ~keep:true ~head:true ~range:None)
              (Raw.session_request s ~meth:"HEAD" target)
        | 3 -> (
            (* [Connection: close], on a fresh connection: a GET, a
               HEAD or a 304 in turn. *)
            match k / 5 mod 3 with
            | 0 ->
                check_bytes what
                  (expected config i ~status:200 ~keep:false ~head:false
                     ~range:None)
                  (Raw.request ~port target)
            | 1 ->
                check_bytes what
                  (expected config i ~status:200 ~keep:false ~head:true
                     ~range:None)
                  (Raw.request ~port ~meth:"HEAD" target)
            | _ ->
                check_bytes what
                  (expected config i ~status:304 ~keep:false ~head:false
                     ~range:None)
                  (Raw.request ~port target
                     ~headers:[ ("If-None-Match", etag_of i) ]))
        | _ ->
            let off, len = range in
            check_bytes what
              (expected config i ~status:206 ~keep:true ~head:false
                 ~range:(Some (off, len)))
              (Raw.session_request s target
                 ~headers:
                   [
                     ("Range", Printf.sprintf "bytes=%d-%d" off (off + len - 1));
                   ])
      in
      Fun.protect
        ~finally:(fun () -> Raw.close_session s)
        (fun () ->
          (* The empty file, every way but a Range. *)
          List.iter
            (fun k -> exchange k 0 ~range:(0, 0))
            [ 0; 1; 2; 3; 8; 13 ];
          let rng = Random.State.make [| 25 |] in
          for k = 0 to 999 do
            let i = 1 + Random.State.int rng (n_files - 1) in
            let off = Random.State.int rng 1000 in
            exchange k i ~range:(off, 1 + Random.State.int rng 2000)
          done);
      let st =
        Test_status.await_stats server (fun st -> st.Server.requests >= 1000)
      in
      let refills = st.Server.cache_misses - Hashtbl.length seen in
      Alcotest.(check bool)
        (Printf.sprintf "%d refills" refills)
        true (refills >= 100))

(* ------------------------------------------------------------------ *)
(* Headers queued behind a full socket                                 *)
(* ------------------------------------------------------------------ *)

(* The entry of file [i] as a fill builds it: headers rendered for its
   size, the body read in place behind them. *)
let fill_entry i =
  let path = Lazy.force site ^ name i in
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let st = Unix.fstat fd in
      let mtime = st.Unix.st_mtime and size = st.Unix.st_size in
      let etag = Http.Etag.make ~mtime ~size () in
      let headers =
        Http.Response.cached ~date:0. ~last_modified:mtime
          ~content_type:(Http.Mime.of_path path) ~content_length:size
          ~ok_extra:[ ("ETag", etag); ("Accept-Ranges", "bytes") ]
          ~not_modified_extra:[ ("ETag", etag) ]
          ~align:32 ()
      in
      let body, lease =
        File_cache.map_body
          ~head:(String.length headers.Http.Response.text)
          fd ~size
      in
      File_cache.make_entry ~body ~lease ~headers ~mtime ~size ~etag
        ~encoding:None)

let buffers = Test_miss_path.buffers

(* A 304 and a HEAD of one entry wait in a queue whose socket is full;
   the cache evicts the entry; the socket drains.  Both headers arrive
   whole, and the entry's five windows read empty only then — and its
   lease is over, so the block was freed, once. *)
let test_queued_headers_outlive_eviction () =
  let w, r = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close w;
      Unix.close r)
    (fun () ->
      Unix.set_nonblock w;
      Unix.set_nonblock r;
      (* Fill the socket. *)
      let junk = Bytes.make 4096 'j' in
      let stuffed = ref 0 in
      (try
         while true do
           stuffed := !stuffed + Unix.write w junk 0 4096
         done
       with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
      let cache = File_cache.create ~capacity_bytes:20_000 () in
      let e = fill_entry 1 in
      let lease = Option.get e.File_cache.mapped in
      File_cache.acquire lease;
      File_cache.insert cache "/x" e;
      let q = Sendq.create () in
      Sendq.push_entry q e ~header:e.File_cache.header_304_keep ~body:false;
      Sendq.push_entry q e ~header:e.File_cache.header_close ~body:false;
      File_cache.release lease;
      let want =
        Iovec.sub_string e.File_cache.header_304_keep ~off:0
          ~len:(Bigarray.Array1.dim e.File_cache.header_304_keep)
        ^ Iovec.sub_string e.File_cache.header_close ~off:0
            ~len:(Bigarray.Array1.dim e.File_cache.header_close)
      in
      (match Sendq.writev q w with
      | n -> Alcotest.failf "a full socket took %d bytes" n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ());
      (* Evict it: four other entries overflow the cache. *)
      for i = 2 to 5 do
        File_cache.insert cache (name i) (fill_entry i)
      done;
      Alcotest.(check bool) "evicted" false (File_cache.resident cache "/x");
      Alcotest.(check bool)
        "queued headers keep the block" true
        (List.for_all (fun b -> Bigarray.Array1.dim b > 0) (buffers e));
      (* Drain the socket and the queue. *)
      let got = Buffer.create 4096 and buf = Bytes.create 65536 in
      let rec read_all () =
        match Unix.read r buf 0 65536 with
        | n when n > 0 ->
            Buffer.add_subbytes got buf 0 n;
            read_all ()
        | _ -> ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            ()
      in
      while not (Sendq.is_empty q) do
        read_all ();
        try ignore (Sendq.writev q w)
        with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      done;
      read_all ();
      let all = Buffer.contents got in
      Alcotest.(check int)
        "bytes" (!stuffed + String.length want) (String.length all);
      Alcotest.(check string)
        "the 304 and the HEAD arrive intact" want
        (String.sub all !stuffed (String.length want));
      Alcotest.(check bool)
        "the last send freed the block" true
        (List.for_all (fun b -> Bigarray.Array1.dim b = 0) (buffers e));
      Alcotest.check_raises "the lease is over"
        (Invalid_argument "File_cache.acquire: body already released")
        (fun () -> File_cache.acquire lease);
      File_cache.clear cache)

let suite =
  [
    Alcotest.test_case "refills match header_pair (AMPED)" `Quick
      (test_refills Server.Amped);
    Alcotest.test_case "refills match header_pair (SPED)" `Quick
      (test_refills Server.Sped);
    Alcotest.test_case "refills match header_pair (MT 2)" `Quick
      (test_refills (Server.Mt 2));
    Alcotest.test_case "304 and HEAD outlive their entry's eviction" `Quick
      test_queued_headers_outlive_eviction;
  ]
