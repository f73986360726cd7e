(* Bechamel microbenchmarks of the request-path primitives (not a paper
   figure; supporting data for the cost model in Os_profile). *)

open Bechamel
open Toolkit

let request_buf =
  "GET /d0_3/d1_3/f001234.html HTTP/1.1\r\nHost: sim.example\r\nUser-Agent: loadgen\r\nConnection: keep-alive\r\n\r\n"

let bench_parse =
  Test.make ~name:"http.request.parse"
    (Staged.stage (fun () -> ignore (Http.Request.parse request_buf)))

let bench_header_aligned =
  Test.make ~name:"http.response.header(align=32)"
    (Staged.stage (fun () ->
         ignore
           (Http.Response.header ~status:Http.Status.Ok
              ~content_type:"text/html" ~content_length:8192 ~align:32 ())))

let bench_header_unaligned =
  Test.make ~name:"http.response.header(raw)"
    (Staged.stage (fun () ->
         ignore
           (Http.Response.header ~status:Http.Status.Ok
              ~content_type:"text/html" ~content_length:8192 ())))

(* The header work of one cache miss, as the live server's [build_entry]
   does it: the ETag, then the 200 and 304 header pairs (keep-alive and
   close each), with Date and Last-Modified, aligned to 32 bytes. *)
let date = 1_760_000_000.5
let mtime = 1_700_000_000.

let bench_miss_fill =
  Test.make ~name:"http.response.miss_fill(etag+4 headers)"
    (Staged.stage (fun () ->
         let etag = Http.Etag.make ~mtime ~size:8192 () in
         ignore
           (Http.Response.header_pair ~status:Http.Status.Ok ~date
              ~last_modified:mtime ~content_type:"text/html"
              ~content_length:8192
              ~extra:[ ("ETag", etag); ("Accept-Ranges", "bytes") ]
              ~align:32 ());
         ignore
           (Http.Response.header_pair ~status:Http.Status.Not_modified ~date
              ~last_modified:mtime ~extra:[ ("ETag", etag) ] ~align:32 ())))

(* The same four headers as the live server renders them now: one
   pass, one buffer, each date and the length formatted once. *)
let bench_cached_headers =
  Test.make ~name:"http.response.cached(etag+4 headers)"
    (Staged.stage (fun () ->
         let etag = Http.Etag.make ~mtime ~size:8192 () in
         ignore
           (Http.Response.cached ~date ~last_modified:mtime
              ~content_type:"text/html" ~content_length:8192
              ~ok_extra:[ ("ETag", etag); ("Accept-Ranges", "bytes") ]
              ~not_modified_extra:[ ("ETag", etag) ]
              ~align:32 ())))

(* A 206 renders its header per request. *)
let bench_partial =
  let etag = Http.Etag.make ~mtime ~size:8192 () in
  Test.make ~name:"http.response.header(206)"
    (Staged.stage (fun () ->
         ignore
           (Http.Response.header ~status:Http.Status.Partial_content ~date
              ~last_modified:mtime ~content_type:"text/html"
              ~content_length:1000 ~keep_alive:true
              ~extra:
                [
                  ( "Content-Range",
                    Http.Range.content_range ~off:100 ~len:1000 ~size:8192 );
                  ("ETag", etag);
                  ("Accept-Ranges", "bytes");
                ]
              ~align:32 ())))

(* The store behind every cache, once per policy, over 4,000 path-like
   keys.  A hit finds a key in a store that holds them all; a miss
   finds a key the store lacks and adds it to a store that holds a
   third of them, evicting a victim.  Each run takes the next key in
   turn, so every miss run misses under every policy. *)
let store_keys =
  Array.init 4000 (fun i ->
      Printf.sprintf "/srv/www/d%d/f%04d.html" (i mod 10) i)

let bench_store_hit policy =
  let store = Flash_cache.Store.create ~policy ~capacity:4000 () in
  Array.iter
    (fun k -> ignore (Flash_cache.Store.add store k () ~weight:1))
    store_keys;
  let next = ref 0 in
  Test.make
    ~name:
      (Printf.sprintf "store(%s).find(hit)" (Flash_cache.Policy.name policy))
    (Staged.stage (fun () ->
         next := (!next + 1) mod 4000;
         ignore (Flash_cache.Store.find store store_keys.(!next))))

let bench_store_miss policy =
  let store = Flash_cache.Store.create ~policy ~capacity:(4000 / 3) () in
  let next = ref 0 in
  Test.make
    ~name:
      (Printf.sprintf "store(%s).find+add(evict)"
         (Flash_cache.Policy.name policy))
    (Staged.stage (fun () ->
         next := (!next + 1) mod 4000;
         let k = store_keys.(!next) in
         match Flash_cache.Store.find store k with
         | Some () -> ()
         | None -> ignore (Flash_cache.Store.add store k () ~weight:1)))

let bench_zipf =
  let zipf = Workload.Zipf.create ~n:10_000 ~alpha:1.0 in
  let rng = Sim.Rng.create ~seed:99 in
  Test.make ~name:"zipf.sample"
    (Staged.stage (fun () -> ignore (Workload.Zipf.sample zipf rng)))

let bench_buffer_cache =
  let memory =
    Simos.Memory.create ~total_bytes:(1024 * 8192) ~min_cache_bytes:8192
  in
  let cache = Simos.Buffer_cache.create ~memory ~page_size:8192 in
  let counter = ref 0 in
  Test.make ~name:"buffer_cache.touch"
    (Staged.stage (fun () ->
         incr counter;
         ignore
           (Simos.Buffer_cache.touch cache
              (Simos.Buffer_cache.File_page
                 { inode = 1; page = !counter land 2047 }))))

let bench_normalize =
  Test.make ~name:"request.normalize_path"
    (Staged.stage (fun () ->
         ignore (Http.Request.normalize_path "/a/b/../c/./d/page.html")))

(* Timer wheel under steady-state churn: one schedule + one advance per
   run against a wheel already carrying 1k pending timers — the shape
   the live server's idle timers produce. *)
let bench_timer_wheel =
  let wheel = Evio.Timer_wheel.create ~now:0. () in
  let now = ref 0. in
  for i = 0 to 999 do
    ignore (Evio.Timer_wheel.schedule wheel ~at:(float_of_int i /. 100.) i)
  done;
  Test.make ~name:"evio.timer_wheel.schedule+advance"
    (Staged.stage (fun () ->
         now := !now +. 0.001;
         ignore (Evio.Timer_wheel.schedule wheel ~at:(!now +. 10.) 0);
         ignore (Evio.Timer_wheel.advance wheel ~now:!now)))

(* The loop asks for its wait timeout every turn: a wheel carrying 1k
   pending timers, as under many idle keep-alive connections. *)
let bench_next_deadline =
  let wheel = Evio.Timer_wheel.create ~now:0. () in
  for i = 0 to 999 do
    ignore (Evio.Timer_wheel.schedule wheel ~at:(10. +. float_of_int i) i)
  done;
  Test.make ~name:"evio.timer_wheel.next_deadline"
    (Staged.stage (fun () -> ignore (Evio.Timer_wheel.next_deadline wheel)))

(* One non-blocking select wait over 4 watched socket pairs, one of them
   readable: the per-turn cost of the default backend. *)
let bench_select_wait =
  let backend = Evio.Backend.create Evio.Select in
  for i = 0 to 3 do
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Evio.Backend.register backend a ~read:true ~write:false;
    if i = 0 then ignore (Unix.write_substring b "x" 0 1)
  done;
  Test.make ~name:"evio.select.wait(4 fds)"
    (Staged.stage (fun () ->
         ignore (Evio.Backend.wait backend ~timeout_ms:0)))

(* The seven lookups a plain GET's answer makes (keep-alive, gzip
   negotiation, the four conditionals, Range), on a parsed head. *)
let bench_header =
  let req =
    match Http.Request.parse request_buf with
    | Http.Request.Complete (req, _) -> req
    | _ -> failwith "micro: request did not parse"
  in
  Test.make ~name:"http.request.header(x7)"
    (Staged.stage (fun () ->
         ignore (Http.Request.header req "connection");
         ignore (Http.Request.header req "accept-encoding");
         ignore (Http.Request.header req "if-match");
         ignore (Http.Request.header req "if-unmodified-since");
         ignore (Http.Request.header req "if-none-match");
         ignore (Http.Request.header req "if-modified-since");
         ignore (Http.Request.header req "range")))

(* A cache hit's lookup: the store's probe, the policy's touch, on a
   cache of 1,000 small entries. *)
let bench_find_trusted =
  let module Fc = Flash_live.File_cache in
  let cache = Fc.create ~capacity_bytes:(64 * 1024 * 1024) () in
  let buf = Iovec.of_string "x" in
  let path i = Printf.sprintf "/srv/www/d%d/f%04d.html" (i mod 10) i in
  for i = 0 to 999 do
    Fc.insert cache (path i)
      {
        Fc.body = buf;
        mapped = None;
        mtime = 0.;
        size = 1;
        etag = "\"1-0\"";
        encoding = None;
        header_keep = buf;
        header_close = buf;
        header_304_keep = buf;
        header_304_close = buf;
      }
  done;
  let key = path 123 in
  Test.make ~name:"file_cache.find_trusted(hit)"
    (Staged.stage (fun () -> ignore (Fc.find_trusted cache key)))

(* The miss path's probe for a file above the copy limit: map a 16 KB
   file, ask [mincore] whether it is in core, unmap it — what the AMPED
   loop pays on a known path before it decides between an inline fill
   and a helper (the fill then faults the pages in on its first send). *)
let micro_file =
  lazy
    (let path = Filename.temp_file "flash_micro" ".bin" in
     let oc = open_out_bin path in
     output_string oc (String.make 16384 'x');
     close_out oc;
     let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
     Sys.remove path;
     fd)

let bench_map_resident =
  Test.make ~name:"iovec.map+resident+unmap(16 KB)"
    (Staged.stage (fun () ->
         let buf = Iovec.map (Lazy.force micro_file) 16384 in
         ignore (Iovec.resident buf);
         Iovec.unmap buf))

(* The inline fill of a file of at most the copy limit: one
   non-blocking read of a resident 16 KB file into a fresh buffer,
   then the free its last lease ends with. *)
let bench_read_cached =
  Test.make ~name:"iovec.read_cached(16 KB)+free"
    (Staged.stage (fun () ->
         match
           Iovec.read_cached ~trust_mincore:true (Lazy.force micro_file) 16384
         with
         | Some buf -> Iovec.free buf
         | None -> failwith "micro: the 16 KB file is not cached"))

(* One steady-state cache fill of a resident 16 KB file, as the loop
   makes it inline: its four headers rendered, the body read in place
   behind them in one block, the entry inserted into a cache that holds
   32 such entries, so each insert evicts the oldest and frees its
   block. *)
let bench_fill =
  let module Fc = Flash_live.File_cache in
  let cache = Fc.create ~capacity_bytes:(32 * 17_000) () in
  let keys = Array.init 64 (Printf.sprintf "/srv/www/f%02d.html") in
  let next = ref 0 in
  Test.make ~name:"file_cache.fill(16 KB)+insert+evict"
    (Staged.stage (fun () ->
         let etag = Http.Etag.make ~mtime ~size:16384 () in
         let headers =
           Http.Response.cached ~date ~last_modified:mtime
             ~content_type:"text/html" ~content_length:16384
             ~ok_extra:[ ("ETag", etag); ("Accept-Ranges", "bytes") ]
             ~not_modified_extra:[ ("ETag", etag) ]
             ~align:32 ()
         in
         match
           Fc.map_resident ~trust_mincore:true
             ~head:(String.length headers.Http.Response.text)
             (Lazy.force micro_file) ~size:16384
         with
         | Some (body, lease) ->
             let entry =
               Fc.make_entry ~body ~lease ~headers ~mtime ~size:16384 ~etag
                 ~encoding:None
             in
             Fc.insert cache keys.(!next) entry;
             next := (!next + 1) land 63
         | None -> failwith "micro: the 16 KB file is not cached"))

(* A rendered header copied into a fresh off-heap buffer, as
   [Sendq.push_string] queues a 206's. *)
let bench_of_string =
  let header = String.make 256 'h' in
  Test.make ~name:"iovec.of_string(256 B)"
    (Staged.stage (fun () -> ignore (Iovec.of_string header)))

(* A cached response through the send queue: header slice plus a body
   slice that takes and, when popped, ends a lease on its body. *)
let bench_sendq_leased =
  let body, mapped =
    Flash_live.File_cache.map_body (Lazy.force micro_file) ~size:16384
  in
  Option.iter Flash_live.File_cache.acquire mapped;
  let header = Iovec.of_string (String.make 256 'h') in
  let q = Flash_live.Sendq.create () in
  Test.make ~name:"sendq.push+gather+advance(leased body)"
    (Staged.stage (fun () ->
         Flash_live.Sendq.push_slice q (Iovec.slice header);
         Flash_live.Sendq.push_body q (Iovec.slice body) mapped;
         let slices = Flash_live.Sendq.gather q in
         Flash_live.Sendq.advance q (Iovec.total_length slices)))

(* One keep-alive hit's tracing as the live server does it: five clock
   reads into the connection's stamps (first byte, parse end, lookup
   end, response ready, finish), then one call that writes the trace
   into a 256-trace ring. *)
let trace_request =
  let tracer = Obs.Trace.create ~clock:Unix.gettimeofday () in
  let st = Obs.Trace.stamps () in
  Test.make ~name:"obs.trace.request"
    (Staged.stage (fun () ->
         Obs.Trace.clear st;
         st.head <- Unix.gettimeofday ();
         st.parsed <- Unix.gettimeofday ();
         st.looked_up <- Unix.gettimeofday ();
         st.ready <- Unix.gettimeofday ();
         st.ended <- Unix.gettimeofday ();
         Obs.Trace.record tracer st ~track:"main-loop" ~work:"" ~meth:"GET"
           ~target:"/d0_3/d1_3/f001234.html" ~closing:false))

(* The same request through the span API, a new trace each time, as the
   simulator and the perfbench replay trace. *)
let trace_request_spans =
  let tracer = Obs.Trace.create ~clock:Unix.gettimeofday () in
  let clock = Unix.gettimeofday in
  Test.make ~name:"obs.trace.request(fresh)"
    (Staged.stage (fun () ->
         let opened = clock () in
         let tr =
           Obs.Trace.start tracer ~at:opened
             ~label:"GET /d0_3/d1_3/f001234.html" ()
         in
         Obs.Trace.instant tracer tr ~at:opened "keepalive-reuse";
         let parse = Obs.Trace.begin_span tracer tr ~at:opened "parse" in
         let parsed = clock () in
         Obs.Trace.end_span tracer ~at:parsed parse;
         let resolve = Obs.Trace.begin_span tracer tr ~at:parsed "resolve" in
         Obs.Trace.end_span tracer resolve;
         let generated = clock () in
         let write = Obs.Trace.begin_span tracer tr ~at:generated "write" in
         let at = clock () in
         Obs.Trace.end_span tracer ~at write;
         Obs.Trace.complete tracer ~at tr))

let tests =
  Test.make_grouped ~name:"micro"
    [
      bench_parse;
      bench_header_aligned;
      bench_header_unaligned;
      bench_miss_fill;
      bench_cached_headers;
      bench_partial;
      bench_zipf;
      bench_buffer_cache;
      bench_normalize;
      bench_timer_wheel;
      bench_next_deadline;
      bench_select_wait;
      bench_header;
      bench_find_trusted;
      bench_map_resident;
      bench_read_cached;
      bench_fill;
      bench_of_string;
      bench_sendq_leased;
      trace_request;
      trace_request_spans;
      bench_store_hit Flash_cache.Policy.Lru;
      bench_store_miss Flash_cache.Policy.Lru;
      bench_store_hit Flash_cache.Policy.Slru;
      bench_store_miss Flash_cache.Policy.Slru;
      bench_store_hit Flash_cache.Policy.Lfu;
      bench_store_miss Flash_cache.Policy.Lfu;
      bench_store_hit Flash_cache.Policy.Gdsf;
      bench_store_miss Flash_cache.Policy.Gdsf;
    ]

let run () =
  (* The figure sims leave a large heap behind; compact so GC noise does
     not pollute the measurements when running after them. *)
  Gc.compact ();
  Format.printf
    "@.============================================================@.";
  Format.printf
    "Microbenchmarks (Bechamel; ns, minor and promoted words per run via \
     OLS)@.";
  Format.printf
    "============================================================@.";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let per_run instance ~stabilize ~digits =
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize ()
    in
    let results =
      Analyze.all ols instance (Benchmark.all cfg [ instance ] tests)
    in
    fun name ->
      match Analyze.OLS.estimates (Hashtbl.find results name) with
      | Some [ est ] -> Printf.sprintf "%.*f" digits est
      | Some _ | None -> "n/a"
  in
  let ns = per_run Instance.monotonic_clock ~stabilize:true ~digits:1 in
  (* Words reach the major heap only at a minor collection.  A heap
     stabilised before every sample starts each one with an empty minor
     heap, so a sample shorter than a minor heap's worth of allocation
     would never promote; promotion is measured without that. *)
  let promoted = per_run Instance.promoted ~stabilize:false ~digits:2 in
  let minor = per_run Instance.minor_allocated ~stabilize:false ~digits:1 in
  Format.printf "%-46s %10s %10s %13s@." "benchmark" "ns/run" "minor/run"
    "promoted/run";
  List.iter
    (fun name ->
      Format.printf "%-46s %10s %10s %13s@." name (ns name) (minor name)
        (promoted name))
    (List.sort String.compare (Test.names tests))
