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

(* The miss path's probe: map a 16 KB file, ask [mincore] whether it
   is in core, unmap it — what the AMPED loop pays on a known path
   before it decides between an inline fill and a helper. *)
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

(* A cached response through the send queue: header slice plus a body
   slice that takes and, when popped, ends a lease on its mapping. *)
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
      bench_sendq_leased;
    ]

let run () =
  (* The figure sims leave a large heap behind; compact so GC noise does
     not pollute the measurements when running after them. *)
  Gc.compact ();
  Format.printf
    "@.============================================================@.";
  Format.printf "Microbenchmarks (Bechamel; ns/run via OLS on monotonic clock)@.";
  Format.printf
    "============================================================@.";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name result acc -> (name, result) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  Format.printf "%-40s %12s@." "benchmark" "ns/run";
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Format.printf "%-40s %12.1f@." name est
      | Some _ | None -> Format.printf "%-40s %12s@." name "n/a")
    rows
