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

let bench_lru =
  let lru = Flash_util.Lru.create ~capacity:1024 () in
  for i = 0 to 1023 do
    Flash_util.Lru.add lru i i ~weight:1
  done;
  let counter = ref 0 in
  Test.make ~name:"lru.find+add"
    (Staged.stage (fun () ->
         incr counter;
         let k = !counter land 2047 in
         ignore (Flash_util.Lru.find lru k);
         Flash_util.Lru.add lru k k ~weight:1))

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

(* The header copies of one miss: four rendered headers of about 256
   bytes each enter off-heap buffers. *)
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

(* One keep-alive request's tracing, as the live server does it: the
   trace, its keep-alive marker and parse span open on one stamp, the
   resolve span starts where the parse ends, the write span at the
   response stamp, and the trace completes into a 256-trace ring.  Five
   clock reads, as the server takes them. *)
let bench_trace_request =
  let tracer = Obs.Trace.create ~clock:Unix.gettimeofday () in
  let clock = Unix.gettimeofday in
  Test.make ~name:"obs.trace.request"
    (Staged.stage (fun () ->
         let opened = clock () in
         let tr = Obs.Trace.start tracer ~at:opened () in
         Obs.Trace.instant tracer tr ~at:opened "keepalive-reuse";
         let parse = Obs.Trace.begin_span tracer tr ~at:opened "parse" in
         let parsed = clock () in
         Obs.Trace.end_span tracer ~at:parsed parse;
         Obs.Trace.relabel tr "GET /d0_3/d1_3/f001234.html";
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
      bench_partial;
      bench_lru;
      bench_zipf;
      bench_buffer_cache;
      bench_normalize;
      bench_timer_wheel;
      bench_map_resident;
      bench_read_cached;
      bench_of_string;
      bench_sendq_leased;
      bench_trace_request;
    ]

let run () =
  (* The figure sims leave a large heap behind; compact so GC noise does
     not pollute the measurements when running after them. *)
  Gc.compact ();
  Format.printf
    "@.============================================================@.";
  Format.printf
    "Microbenchmarks (Bechamel; ns and promoted words per run via OLS)@.";
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
  Format.printf "%-46s %10s %13s@." "benchmark" "ns/run" "promoted/run";
  List.iter
    (fun name ->
      Format.printf "%-46s %10s %13s@." name (ns name) (promoted name))
    (List.sort String.compare (Test.names tests))
