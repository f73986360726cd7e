type job = {
  resp : Runtime.response;
  j_start : float;  (* virtual time the send began (trace write span) *)
  mutable hdr_sent : int;
  mutable body_sent : int;
  mutable misalign_left : int;
  mutable held : Mmap_cache.chunk option;
  mutable held_index : int;
}

type econn = {
  conn : Simos.Net.conn;
  accepted_at : float;
  mutable rbuf : string;
  mutable state : state;
  mutable alive : bool;
  mutable trace : Obs.Trace.trace option;  (* request in flight *)
  mutable served : int;  (* finished traces on this connection *)
}

and state =
  | Reading
  | Sending of job
  | Wait_translate
  | Wait_pagein of job

(* Helper completions carry the dispatch time so the loop can stitch a
   helper-attributed span covering queue wait + blocking work. *)
type helper_result =
  | Translated of econn * Http.Request.t * string * Simos.Fs.file option * float
  | Paged_in of econn * float

type tag = Accept | Helper | Deferred | Io of econn

(* ------------------------------------------------------------------ *)
(* Tracing (virtual-clock spans; no-ops unless config.trace)            *)
(* ------------------------------------------------------------------ *)

let sim_now rt = Simos.Kernel.now rt.Runtime.kernel

(* Single-threaded simulation: no locking needed around the tracer. *)
let begin_trace rt c (req : Http.Request.t) =
  match rt.Runtime.tracer with
  | None -> ()
  | Some tracer ->
      let label =
        Http.Request.meth_to_string req.Http.Request.meth
        ^ " " ^ req.Http.Request.raw_target
      in
      let tr =
        if c.served = 0 then begin
          let tr = Obs.Trace.start tracer ~at:c.accepted_at ~label () in
          Obs.Trace.add_span tracer ~name:"accept" ~start:c.accepted_at
            ~stop:c.accepted_at tr;
          tr
        end
        else begin
          let tr = Obs.Trace.start tracer ~label () in
          Obs.Trace.instant tracer tr "keepalive-reuse";
          tr
        end
      in
      c.trace <- Some tr

let add_tr_span rt c ?track name ~start ~stop =
  match (rt.Runtime.tracer, c.trace) with
  | Some tracer, Some tr -> Obs.Trace.add_span tracer ?track ~name ~start ~stop tr
  | _ -> ()

let add_tr_instant rt c name =
  match (rt.Runtime.tracer, c.trace) with
  | Some tracer, Some tr -> Obs.Trace.instant tracer tr name
  | _ -> ()

let finish_trace rt c =
  match (rt.Runtime.tracer, c.trace) with
  | Some tracer, Some tr ->
      Obs.Trace.complete tracer tr;
      c.trace <- None;
      c.served <- c.served + 1
  | _ -> ()

let release_held rt job =
  match job.held with
  | Some chunk ->
      Mmap_cache.release rt.Runtime.shared_caches.Runtime.mmap chunk;
      job.held <- None;
      job.held_index <- -1
  | None -> ()

let job_complete job =
  let body_target = if job.resp.Runtime.head_only then 0 else job.resp.Runtime.body_len in
  job.hdr_sent >= String.length job.resp.Runtime.header
  && job.body_sent >= body_target

let make_job rt resp =
  {
    resp;
    j_start = Simos.Kernel.now rt.Runtime.kernel;
    hdr_sent = 0;
    body_sent = 0;
    misalign_left = Runtime.misaligned_budget rt resp;
    held = None;
    held_index = -1;
  }

let rec close_conn rt c =
  if c.alive then begin
    (match c.state with
    | Sending job | Wait_pagein job -> release_held rt job
    | Reading | Wait_translate -> ());
    (* A request still in flight gets its trace closed, not lost. *)
    add_tr_instant rt c "close";
    finish_trace rt c;
    c.alive <- false;
    Simos.Kernel.close rt.Runtime.kernel c.conn
  end

(* ------------------------------------------------------------------ *)
(* The send step: runs when the connection's socket is writable.       *)
(* ------------------------------------------------------------------ *)

and do_send rt ~pool c job =
  let kernel = rt.Runtime.kernel in
  let config = rt.Runtime.config in
  let caches = rt.Runtime.shared_caches in
  let resp = job.resp in
  let hlen = String.length resp.Runtime.header in
  let body_target = if resp.Runtime.head_only then 0 else resp.Runtime.body_len in
  let hdr_remaining = hlen - job.hdr_sent in
  let data_remaining = body_target - job.body_sent in
  (* Decide the data slice for this step and make sure it is mapped and
     resident (architecture-specific). *)
  let proceed step_data =
    Runtime.charge_body_copy rt step_data;
    let want = hdr_remaining + step_data in
    let mis = min job.misalign_left step_data in
    let sent = Simos.Kernel.send kernel c.conn ~len:want ~misaligned_bytes:mis in
    let hdr_part = min sent hdr_remaining in
    job.hdr_sent <- job.hdr_sent + hdr_part;
    let data_part = sent - hdr_part in
    job.body_sent <- job.body_sent + data_part;
    job.misalign_left <- max 0 (job.misalign_left - data_part);
    if job_complete job then begin
      release_held rt job;
      Runtime.finished rt resp;
      Simos.Net.mark_response_done c.conn;
      add_tr_span rt c "write" ~start:job.j_start ~stop:(sim_now rt);
      if resp.Runtime.keep && not (Simos.Net.client_closed c.conn) then begin
        finish_trace rt c;
        c.state <- Reading;
        (* A pipelined request may already be buffered. *)
        try_parse rt ~pool c
      end
      else close_conn rt c  (* close_conn finishes the trace *)
    end
  in
  match resp.Runtime.file with
  | None -> proceed (min data_remaining config.Config.io_chunk)
  | Some _ when data_remaining = 0 -> proceed 0
  | Some file ->
      let off = job.body_sent in
      let chunk_b = config.Config.mmap_chunk_bytes in
      let chunk_index = off / chunk_b in
      let chunk_end = min body_target ((chunk_index + 1) * chunk_b) in
      let step_data = min (chunk_end - off) config.Config.io_chunk in
      (* Hold the mapping for the chunk being transmitted. *)
      if job.held_index <> chunk_index then begin
        release_held rt job;
        job.held <- Some (Mmap_cache.acquire caches.Runtime.mmap file ~index:chunk_index);
        job.held_index <- chunk_index
      end;
      (match pool with
      | Some pool ->
          let dispatch_pagein () =
            rt.Runtime.helper_dispatches <- rt.Runtime.helper_dispatches + 1;
            c.state <- Wait_pagein job;
            let enqueued = sim_now rt in
            let admitted =
              Helper_pool.dispatch pool ~work:(fun () ->
                  (* The helper touches the pages in its own mapping,
                     blocking on the disk reads itself. *)
                  Simos.Kernel.page_in kernel file ~off ~len:step_data;
                  let pages =
                    Simos.Fs.pages_in_range (Simos.Kernel.fs kernel) ~off
                      ~len:step_data
                  in
                  Simos.Kernel.charge kernel (float_of_int pages *. 1e-6);
                  Paged_in (c, enqueued))
            in
            if not admitted then begin
              (* Bounded backlog full mid-response: headers are already
                 on the wire, so shedding is no longer possible — fault
                 the pages inline (the SPED pathology, but bounded by
                 the cap rather than an unbounded queue). *)
              let before = sim_now rt in
              Simos.Kernel.page_in kernel file ~off ~len:step_data;
              if sim_now rt > before then
                add_tr_span rt c "disk-read" ~start:before ~stop:(sim_now rt);
              c.state <- Sending job;
              proceed step_data
            end
          in
          (match rt.Runtime.residency with
          | None ->
              (* AMPED: test residency before use; ship misses to a
                 helper.  Transmitting from the mapping references the
                 pages (mincore alone would not). *)
              if Simos.Kernel.mincore kernel file ~off ~len:step_data then begin
                Simos.Kernel.mark_accessed kernel file ~off ~len:step_data;
                proceed step_data
              end
              else dispatch_pagein ()
          | Some predictor ->
              (* S5.7 fallback: no mincore available.  Ranges the
                 predictor believes resident are accessed inline; a wrong
                 belief blocks the whole loop (a page fault) and shrinks
                 the assumed cache size. *)
              if Residency.predict_resident predictor file ~off ~len:step_data
              then begin
                let before = Simos.Kernel.now kernel in
                Simos.Kernel.page_in kernel file ~off ~len:step_data;
                if Simos.Kernel.now kernel > before then begin
                  Residency.note_fault predictor file ~off ~len:step_data;
                  (* Mispredicted: the loop just blocked on disk. *)
                  add_tr_span rt c "disk-read" ~start:before
                    ~stop:(Simos.Kernel.now kernel)
                end
                else Residency.note_correct predictor;
                Residency.note_access predictor file ~off ~len:step_data;
                proceed step_data
              end
              else begin
                Residency.note_access predictor file ~off ~len:step_data;
                dispatch_pagein ()
              end)
      | None ->
          (* SPED/Zeus: the "non-blocking" file read; on a cache miss this
             stalls the entire event loop — the paper's central pathology.
             The disk span lands on the main-loop track. *)
          let before = Simos.Kernel.now kernel in
          Simos.Kernel.page_in kernel file ~off ~len:step_data;
          if Simos.Kernel.now kernel > before then
            add_tr_span rt c "disk-read" ~start:before
              ~stop:(Simos.Kernel.now kernel);
          proceed step_data)

(* ------------------------------------------------------------------ *)
(* Request intake.                                                     *)
(* ------------------------------------------------------------------ *)

and start_send rt ~pool c resp =
  let job = make_job rt resp in
  c.state <- Sending job;
  if Simos.Pollable.is_ready (Simos.Net.writable c.conn) then
    do_send rt ~pool c job

and process_request rt ~pool c (req : Http.Request.t) ~head_bytes =
  begin_trace rt c req;
  let t_parse = sim_now rt in
  Runtime.charge_request rt ~bytes:head_bytes;
  add_tr_span rt c "parse" ~start:t_parse ~stop:(sim_now rt);
  let keep = Http.Request.keep_alive req in
  let caches = rt.Runtime.shared_caches in
  match Runtime.resolve_path rt req with
  | None ->
      start_send rt ~pool c
        (Runtime.error_response rt req Http.Status.Forbidden ~keep)
  | Some path when Runtime.is_cgi_path path -> (
      (* §5.6: forward to the persistent application process; its
         completion arrives on the deferred pipe like any other IO
         event, so the loop never blocks on dynamic content. *)
      match rt.Runtime.cgi with
      | Some cgi_pool ->
          c.state <- Wait_translate;
          let kernel = rt.Runtime.kernel in
          let enqueued = sim_now rt in
          Cgi_pool.dispatch cgi_pool ~script:path ~on_done:(fun ~bytes ->
              Simos.Kernel.pipe_write kernel rt.Runtime.deferred (fun () ->
                  if c.alive then begin
                    add_tr_span rt c ~track:"cgi-app" "cgi" ~start:enqueued
                      ~stop:(sim_now rt);
                    start_send rt ~pool c
                      (Runtime.cgi_response rt req ~bytes ~keep)
                  end))
      | None ->
          start_send rt ~pool c
            (Runtime.error_response rt req Http.Status.Forbidden ~keep))
  | Some path -> (
      let t_translate = sim_now rt in
      match Runtime.translate_cached rt caches path with
      | Some file ->
          add_tr_span rt c "translate" ~start:t_translate ~stop:(sim_now rt);
          start_send rt ~pool c (Runtime.ok_response rt caches req file ~keep)
      | None -> (
          add_tr_span rt c "translate" ~start:t_translate ~stop:(sim_now rt);
          match pool with
          | Some pool ->
              (* AMPED: uncached translations go to a helper process.
                 A full bounded backlog is answered with an early 503
                 before any disk work is committed. *)
              rt.Runtime.helper_dispatches <- rt.Runtime.helper_dispatches + 1;
              c.state <- Wait_translate;
              let kernel = rt.Runtime.kernel in
              let enqueued = sim_now rt in
              let admitted =
                Helper_pool.dispatch pool ~work:(fun () ->
                    let file = Simos.Kernel.open_stat kernel path in
                    Translated (c, req, path, file, enqueued))
              in
              if not admitted then begin
                c.state <- Reading;
                start_send rt ~pool:(Some pool) c
                  (Runtime.error_response rt req Http.Status.Service_unavailable
                     ~keep)
              end
          | None -> (
              (* SPED/Zeus: inline translation; metadata misses stall the
                 loop. *)
              let before = sim_now rt in
              match Simos.Kernel.open_stat rt.Runtime.kernel path with
              | Some file ->
                  add_tr_span rt c "translate-disk" ~start:before
                    ~stop:(sim_now rt);
                  Pathname_cache.insert caches.Runtime.pathname path file;
                  start_send rt ~pool c
                    (Runtime.ok_response rt caches req file ~keep)
              | None ->
                  add_tr_span rt c "translate-disk" ~start:before
                    ~stop:(sim_now rt);
                  start_send rt ~pool c
                    (Runtime.error_response rt req Http.Status.Not_found ~keep))))

and try_parse rt ~pool c =
  if c.rbuf <> "" then begin
    match Http.Request.parse c.rbuf with
    | Http.Request.Incomplete -> ()
    | Http.Request.Bad _ ->
        let fake =
          {
            Http.Request.meth = Http.Request.Get;
            raw_target = "/";
            path = "/";
            query = None;
            version = (1, 0);
            headers = [];
          }
        in
        c.rbuf <- "";
        start_send rt ~pool c
          (Runtime.error_response rt fake Http.Status.Bad_request ~keep:false)
    | Http.Request.Complete (req, consumed) ->
        c.rbuf <-
          String.sub c.rbuf consumed (String.length c.rbuf - consumed);
        process_request rt ~pool c req ~head_bytes:consumed
  end

let do_read rt ~pool c =
  match Simos.Kernel.recv rt.Runtime.kernel c.conn ~max_bytes:8192 with
  | `Would_block -> ()
  | `Eof -> close_conn rt c
  | `Data data ->
      c.rbuf <- c.rbuf ^ data;
      try_parse rt ~pool c

let apply_helper_result rt ~pool result =
  match result with
  | Translated (c, req, path, file_opt, enqueued) ->
      if c.alive then begin
        add_tr_span rt c ~track:"helper" "helper-translate" ~start:enqueued
          ~stop:(sim_now rt);
        let caches = rt.Runtime.shared_caches in
        let keep = Http.Request.keep_alive req in
        match file_opt with
        | Some file ->
            Pathname_cache.insert caches.Runtime.pathname path file;
            start_send rt ~pool c
              (Runtime.ok_response rt caches req file ~keep)
        | None ->
            start_send rt ~pool c
              (Runtime.error_response rt req Http.Status.Not_found ~keep)
      end
  | Paged_in (c, enqueued) ->
      if c.alive then begin
        (* Queue wait + blocking disk work, on the helper's track. *)
        add_tr_span rt c ~track:"helper" "disk-read" ~start:enqueued
          ~stop:(sim_now rt);
        match c.state with
        | Wait_pagein job ->
            c.state <- Sending job;
            if Simos.Pollable.is_ready (Simos.Net.writable c.conn) then
              do_send rt ~pool c job
        | Reading | Sending _ | Wait_translate -> ()
      end

(* Zeus gives priority to accepts, reads and small sends; large pending
   transmissions are serviced last.  Flash handles events in arrival
   order. *)
let reorder_small_first ready =
  let remaining = function
    | Io c -> (
        match c.state with
        | Sending job ->
            job.resp.Runtime.body_len - job.body_sent
            + (String.length job.resp.Runtime.header - job.hdr_sent)
        | Reading | Wait_translate | Wait_pagein _ -> -1)
    | Accept | Helper | Deferred -> -1
  in
  List.stable_sort (fun a b -> compare (remaining a) (remaining b)) ready

let run rt ~pool () =
  let kernel = rt.Runtime.kernel in
  let conns = ref [] in
  let handle tag =
    match tag with
    | Accept ->
        let rec accept_all () =
          match Simos.Kernel.accept kernel with
          | Some conn ->
              let c =
                {
                  conn;
                  accepted_at = Simos.Kernel.now kernel;
                  rbuf = "";
                  state = Reading;
                  alive = true;
                  trace = None;
                  served = 0;
                }
              in
              conns := c :: !conns;
              accept_all ()
          | None -> ()
        in
        accept_all ()
    | Helper -> (
        match pool with
        | None -> ()
        | Some pool ->
            let pipe = Helper_pool.notify_pipe pool in
            let rec drain () =
              match Simos.Kernel.pipe_read kernel pipe with
              | Some result ->
                  apply_helper_result rt ~pool:(Some pool) result;
                  drain ()
              | None -> ()
            in
            drain ())
    | Deferred ->
        let rec drain () =
          match Simos.Kernel.pipe_read kernel rt.Runtime.deferred with
          | Some thunk ->
              thunk ();
              drain ()
          | None -> ()
        in
        drain ()
    | Io c ->
        if c.alive then begin
          match c.state with
          | Reading -> do_read rt ~pool c
          | Sending job -> do_send rt ~pool c job
          | Wait_translate | Wait_pagein _ -> ()
        end
  in
  let rec loop () =
    conns := List.filter (fun c -> c.alive) !conns;
    let interests =
      (Accept, Simos.Kernel.listener_pollable kernel)
      :: (Deferred, Simos.Pipe.pollable rt.Runtime.deferred)
      ::
      (match pool with
      | Some p -> [ (Helper, Simos.Pipe.pollable (Helper_pool.notify_pipe p)) ]
      | None -> [])
      @ List.filter_map
          (fun c ->
            match c.state with
            | Reading -> Some (Io c, Simos.Net.readable c.conn)
            | Sending _ -> Some (Io c, Simos.Net.writable c.conn)
            | Wait_translate | Wait_pagein _ -> None)
          !conns
    in
    let ready = Simos.Kernel.select kernel interests in
    let ready =
      if rt.Runtime.config.Config.small_request_priority then
        reorder_small_first ready
      else ready
    in
    List.iter handle ready;
    loop ()
  in
  loop ()
