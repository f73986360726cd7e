(* The traced pass: the first N requests of a workload's stream, replayed
   in-process through the live server's layers in the order the AMPED
   path calls them, with one span per call recorded from here, around
   the call.  Nothing inside the program is instrumented.

   Per request: Request.parse -> normalize_path -> File_cache.find_trusted;
   on a miss Helper.dispatch/drain -> File_cache.map_body -> four
   Response.header renders (200 and 304, keep-alive and close) ->
   File_cache.insert; then the Conditional/Range plan (plus the 206
   header), Sendq push/gather + Iovec.writev into a socketpair that is
   drained between writes, and the Obs.Trace calls and
   Histogram.record the server makes for every request. *)

module Fc = Flash_live.File_cache

type layer =
  | Request  (* the root span of one request *)
  | Parse
  | Normalize
  | Find
  | Helper_call  (* dispatch + drain on the calling thread *)
  | Map_body
  | Header
  | Insert
  | Plan
  | Send
  | Obs_trace
  | Obs_hist

let layers =
  [|
    Request; Parse; Normalize; Find; Helper_call; Map_body; Header; Insert; Plan;
    Send; Obs_trace; Obs_hist;
  |]

let layer_name = function
  | Request -> "request"
  | Parse -> "http_request.parse"
  | Normalize -> "http_request.normalize"
  | Find -> "file_cache.find"
  | Helper_call -> "helper.dispatch"
  | Map_body -> "file_cache.map_body"
  | Header -> "http_response.header"
  | Insert -> "file_cache.insert"
  | Plan -> "http_plan.evaluate"
  | Send -> "sendq.send"
  | Obs_trace -> "obs.trace_request"
  | Obs_hist -> "obs.histogram_record"

let layer_index l =
  let rec go i = if layers.(i) = l then i else go (i + 1) in
  go 0

(* Spans in growable columns; a span's parent is a span index, -1 for a
   root. *)
type spans = {
  mutable n : int;
  mutable req : int array;
  mutable parent : int array;
  mutable layer : int array;
  mutable start : int array;
  mutable stop : int array;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let add sp ~req ~parent layer start stop =
  if sp.n = Array.length sp.req then begin
    let grow a =
      let b = Array.make (2 * sp.n) 0 in
      Array.blit a 0 b 0 sp.n;
      b
    in
    sp.req <- grow sp.req;
    sp.parent <- grow sp.parent;
    sp.layer <- grow sp.layer;
    sp.start <- grow sp.start;
    sp.stop <- grow sp.stop
  end;
  let i = sp.n in
  sp.req.(i) <- req;
  sp.parent.(i) <- parent;
  sp.layer.(i) <- layer_index layer;
  sp.start.(i) <- start;
  sp.stop.(i) <- stop;
  sp.n <- i + 1;
  i

type result = {
  requests : int;
  self_ns : (string * float) list;  (** per layer, mean self time per request *)
  helper_jobs : int;
  helper_wait_us : float;  (** per request *)
  helper_service_us : float;  (** per request *)
  span_count : int;
}

let align = 32  (* flash_serve's default header alignment *)

type env = {
  w : Workload.t;
  docroot : string;
  cache : Fc.t;
  helper : Flash_live.Helper.t;
  tracer : Obs.Trace.t;
  hist : Obs.Histogram.t;
  sink_w : Unix.file_descr;
  sink_r : Unix.file_descr;
  drain_buf : Bytes.t;
  etags : string array;
  sp : spans;
  mutable jobs : int;
  mutable wait_s : float;
  mutable service_s : float;
}

let drain env =
  let rec go () =
    match Unix.read env.sink_r env.drain_buf 0 (Bytes.length env.drain_buf) with
    | n when n = Bytes.length env.drain_buf -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  go ()

let one env ~record ~id (r : Workload.request) =
  let rid = if record then id else -1 in
  let t_req = now_ns () in
  let kids = ref [] in
  let span layer f =
    let t0 = now_ns () in
    let v = f () in
    let t1 = now_ns () in
    if record then kids := (layer, t0, t1) :: !kids;
    v
  in
  let w = env.w in
  let raw = Workload.request_line ~etag:env.etags.(r.Workload.file) w r in
  let tr =
    span Obs_trace (fun () ->
        let tr = Obs.Trace.start env.tracer () in
        (tr, Obs.Trace.begin_span env.tracer tr "parse"))
  in
  let req =
    match span Parse (fun () -> Http.Request.parse raw) with
    | Http.Request.Complete (req, _) -> req
    | _ -> failwith ("replay: request did not parse: " ^ raw)
  in
  let trace, parse_sp = tr in
  let resolve_sp =
    span Obs_trace (fun () ->
        Obs.Trace.end_span env.tracer parse_sp;
        Obs.Trace.begin_span env.tracer trace "resolve")
  in
  let path =
    match span Normalize (fun () -> Http.Request.normalize_path req.Http.Request.path) with
    | Some p -> p
    | None -> failwith "replay: path did not normalize"
  in
  let full = env.docroot ^ path in
  let found = span Find (fun () -> Fc.find_trusted env.cache full) in
  span Obs_trace (fun () -> Obs.Trace.end_span env.tracer resolve_sp);
  let entry =
    match found with
    | Some e -> e
    | None ->
        ignore
          (span Helper_call (fun () ->
               Flash_live.Helper.dispatch env.helper ~key:id ~path:full));
        (* Each drain is a span of its own; the wait for the helper's
           wake-up between drains is in none. *)
        let rec await () =
          match span Helper_call (fun () -> Flash_live.Helper.drain env.helper) with
          | c :: _ -> c
          | [] ->
              ignore (Unix.select [ Flash_live.Helper.notify_fd env.helper ] [] [] 1.0);
              await ()
        in
        let c = await () in
        let size, mtime =
          match c.Flash_live.Helper.result with
          | Flash_live.Helper.Found { size; mtime } -> (size, mtime)
          | Flash_live.Helper.Missing -> failwith ("replay: helper missed " ^ full)
        in
        env.jobs <- env.jobs + 1;
        env.wait_s <- env.wait_s +. (c.Flash_live.Helper.started -. c.Flash_live.Helper.enqueued);
        env.service_s <-
          env.service_s +. (c.Flash_live.Helper.finished -. c.Flash_live.Helper.started);
        let fd = Unix.openfile full [ Unix.O_RDONLY ] 0 in
        let body, mapped = span Map_body (fun () -> Fc.map_body fd ~size) in
        Unix.close fd;
        let etag = Http.Etag.make ~mtime ~size () in
        let date = Unix.gettimeofday () in
        let extra = [ ("ETag", etag); ("Accept-Ranges", "bytes") ] in
        let content_type = Http.Mime.of_path full in
        let render status keep ~extra ~content_type ~content_length =
          span Header (fun () ->
              Http.Response.header ~status ~date ~last_modified:mtime ?content_type
                ?content_length ~extra ~keep_alive:keep ~align ())
        in
        let ok k =
          render Http.Status.Ok k ~extra ~content_type:(Some content_type)
            ~content_length:(Some size)
        in
        let nm k =
          render Http.Status.Not_modified k ~extra:[ ("ETag", etag) ] ~content_type:None
            ~content_length:None
        in
        let hk = ok true and hc = ok false and h304k = nm true and h304c = nm false in
        let entry =
          {
            Fc.body;
            mapped;
            mtime;
            size;
            etag;
            encoding = None;
            header_keep = Iovec.of_string hk;
            header_close = Iovec.of_string hc;
            header_304_keep = Iovec.of_string h304k;
            header_304_close = Iovec.of_string h304c;
          }
        in
        span Insert (fun () -> Fc.insert env.cache full entry);
        entry
  in
  let plan =
    span Plan (fun () ->
        let header = Http.Request.header req in
        let etag =
          match Http.Etag.parse entry.Fc.etag with
          | Some e -> e
          | None -> { Http.Etag.weak = false; opaque = entry.Fc.etag }
        in
        match
          Http.Conditional.evaluate ~meth:req.Http.Request.meth ~header ~etag
            ~mtime:entry.Fc.mtime
        with
        | Http.Conditional.Not_modified -> `Not_modified
        | Http.Conditional.Precondition_failed -> failwith "replay: 412"
        | Http.Conditional.Proceed -> (
            match header "range" with
            | Some v
              when Http.Conditional.if_range_permits ~header ~etag ~mtime:entry.Fc.mtime
              -> (
                match Http.Range.plan v ~size:(Fc.body_length entry) with
                | Http.Range.Single { off; len } -> `Slice (off, len)
                | Http.Range.Whole -> `Full
                | Http.Range.Unsatisfiable -> failwith "replay: 416")
            | _ -> `Full))
  in
  let write_sp = span Obs_trace (fun () -> Obs.Trace.begin_span env.tracer trace "write") in
  let q = Flash_live.Sendq.create () in
  (match plan with
  | `Not_modified ->
      span Send (fun () ->
          Flash_live.Sendq.push_slice q (Iovec.slice entry.Fc.header_304_keep))
  | `Full ->
      span Send (fun () ->
          Flash_live.Sendq.push_slice q (Iovec.slice entry.Fc.header_keep);
          Flash_live.Sendq.push_slice q (Iovec.slice entry.Fc.body))
  | `Slice (off, len) ->
      let h =
        span Header (fun () ->
            Http.Response.header ~status:Http.Status.Partial_content
              ~last_modified:entry.Fc.mtime
              ~extra:
                [
                  ( "Content-Range",
                    Http.Range.content_range ~off ~len ~size:(Fc.body_length entry) );
                  ("ETag", entry.Fc.etag);
                  ("Accept-Ranges", "bytes");
                ]
              ~content_type:(Http.Mime.of_path full) ~content_length:len ~keep_alive:true
              ~date:(Unix.gettimeofday ()) ~align ())
      in
      span Send (fun () ->
          ignore (Flash_live.Sendq.push_string q h);
          Flash_live.Sendq.push_slice q (Iovec.slice ~off ~len entry.Fc.body)));
  (* Gather-write until the queue empties; a full socket ends the send
     span, the sink is drained outside any span, and a fresh span
     resumes the write. *)
  let rec flush () =
    let more =
      span Send (fun () ->
          let rec go () =
            if Flash_live.Sendq.is_empty q then false
            else
              let slices = Flash_live.Sendq.gather q in
              match Iovec.writev env.sink_w slices with
              | n ->
                  Flash_live.Sendq.advance q n;
                  go ()
              | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> true
          in
          go ())
    in
    drain env;
    if more then flush ()
  in
  flush ();
  let t_end = now_ns () in
  span Obs_trace (fun () ->
      Obs.Trace.end_span env.tracer write_sp;
      ignore (Obs.Trace.finish env.tracer trace));
  span Obs_hist (fun () ->
      Obs.Histogram.record env.hist (float_of_int (t_end - t_req) *. 1e-9));
  if record then begin
    let root = add env.sp ~req:rid ~parent:(-1) Request t_req (now_ns ()) in
    List.iter (fun (l, a, b) -> ignore (add env.sp ~req:rid ~parent:root l a b)) (List.rev !kids)
  end

let write_spans sp path =
  let oc = open_out path in
  output_string oc "req\tspan\tparent\tlayer\tstart_ns\tstop_ns\n";
  for i = 0 to sp.n - 1 do
    Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\n" sp.req.(i) i sp.parent.(i)
      (layer_name layers.(sp.layer.(i)))
      sp.start.(i) sp.stop.(i)
  done;
  close_out oc

(* Self time per layer: a span's duration minus what its child spans
   cover. *)
let self_times sp =
  let child = Array.make sp.n 0 in
  for i = 0 to sp.n - 1 do
    let p = sp.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) + (sp.stop.(i) - sp.start.(i))
  done;
  let tot = Array.make (Array.length layers) 0 in
  for i = 0 to sp.n - 1 do
    let l = sp.layer.(i) in
    tot.(l) <- tot.(l) + (sp.stop.(i) - sp.start.(i) - child.(i))
  done;
  tot

let run (w : Workload.t) ~docroot ~etags ~warm ~n ~spans_path =
  let cache = Fc.create ~capacity_bytes:(32 * 1024 * 1024) () in
  let helper = Flash_live.Helper.create ~helpers:4 () in
  let sink_w, sink_r = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock sink_w;
  Unix.set_nonblock sink_r;
  let env =
    {
      w;
      docroot;
      cache;
      helper;
      tracer = Obs.Trace.create ~clock:Unix.gettimeofday ();
      hist = Obs.Histogram.create ();
      sink_w;
      sink_r;
      drain_buf = Bytes.create (1 lsl 20);
      etags;
      sp =
        {
          n = 0;
          req = Array.make 4096 0;
          parent = Array.make 4096 0;
          layer = Array.make 4096 0;
          start = Array.make 4096 0;
          stop = Array.make 4096 0;
        };
      jobs = 0;
      wait_s = 0.;
      service_s = 0.;
    }
  in
  let finally () =
    Flash_live.Helper.shutdown helper;
    Unix.close sink_w;
    Unix.close sink_r
  in
  Fun.protect ~finally (fun () ->
      (* Warm the cache as the live run does: every file once, then the
         warm-up stream. *)
      Array.iteri
        (fun i _ -> one env ~record:false ~id:i { Workload.file = i; kind = Workload.Get })
        w.Workload.files;
      let ws = Workload.stream w ~index:1 in
      for i = 1 to warm do
        one env ~record:false ~id:i (Workload.next ws)
      done;
      env.jobs <- 0;
      env.wait_s <- 0.;
      env.service_s <- 0.;
      let s = Workload.stream w ~index:0 in
      for id = 0 to n - 1 do
        one env ~record:true ~id (Workload.next s)
      done;
      write_spans env.sp spans_path;
      let tot = self_times env.sp in
      let per_req x = float_of_int x /. float_of_int n in
      {
        requests = n;
        self_ns =
          Array.to_list
            (Array.mapi (fun i l -> (layer_name l, per_req tot.(i))) layers);
        helper_jobs = env.jobs;
        helper_wait_us = env.wait_s *. 1e6 /. float_of_int n;
        helper_service_us = env.service_s *. 1e6 /. float_of_int n;
        span_count = env.sp.n;
      })
