type caches = {
  pathname : Pathname_cache.t;
  headers : Header_cache.t;
  mmap : Mmap_cache.t;
}

type t = {
  kernel : Simos.Kernel.t;
  config : Config.t;
  shared_caches : caches;
  cache_mutex : Sim.Sync.Mutex.t option;
  mutable completed : int;
  mutable errors : int;
  mutable helper_dispatches : int;
  residency : Residency.t option;
  cgi : Cgi_pool.t option;
  (* Deferred main-loop actions posted from other processes (CGI
     completions); event loops select on it and run the thunks. *)
  deferred : (unit -> unit) Simos.Pipe.t;
  (* Request-lifecycle traces on the virtual clock, when config.trace. *)
  tracer : Obs.Trace.t option;
}

type response = {
  status : Http.Status.t;
  file : Simos.Fs.file option;
  header : string;
  body_len : int;
  head_only : bool;
  keep : bool;
}

let make_caches_of_kernel kernel (config : Config.t) =
  let policy = config.Config.cache_policy in
  let budget =
    Option.map
      (fun bytes -> Flash_cache.Budget.create ~bytes)
      config.Config.cache_budget_bytes
  in
  {
    pathname =
      Pathname_cache.create ~policy ?budget
        ~entries:config.Config.pathname_cache_entries ();
    headers = Header_cache.create ~policy ?budget ~enabled:config.Config.header_cache ();
    mmap =
      Mmap_cache.create ~policy ?budget kernel
        ~chunk_bytes:config.Config.mmap_chunk_bytes
        ~max_bytes:config.Config.mmap_cache_bytes;
  }

let create kernel (config : Config.t) =
  let residency =
    if config.Config.residency_heuristic && config.Config.arch = Config.Amped
    then begin
      let p = Simos.Kernel.profile kernel in
      let total = p.Simos.Os_profile.ram_bytes in
      Some
        (Residency.create
           ~initial_bytes:(total / 2)
           ~min_bytes:(4 * 1024 * 1024)
           ~max_bytes:total)
    end
    else None
  in
  let cgi =
    match config.Config.cgi with
    | None -> None
    | Some { Config.cgi_cpu; cgi_think; cgi_bytes } ->
        let p = Simos.Kernel.profile kernel in
        Some
          (Cgi_pool.create kernel ~cpu:cgi_cpu ~think:cgi_think
             ~response_bytes:cgi_bytes
             ~footprint:p.Simos.Os_profile.process_footprint)
  in
  {
    kernel;
    config;
    shared_caches = make_caches_of_kernel kernel config;
    cache_mutex =
      (if config.Config.arch = Config.Mt then Some (Sim.Sync.Mutex.create ())
       else None);
    completed = 0;
    errors = 0;
    helper_dispatches = 0;
    residency;
    cgi;
    deferred = Simos.Pipe.create ();
    tracer =
      (if config.Config.trace then
         Some (Obs.Trace.create ~clock:(fun () -> Simos.Kernel.now kernel) ())
       else None);
  }

let make_caches t config = make_caches_of_kernel t.kernel config

let resolve_path t (req : Http.Request.t) =
  let raw = req.Http.Request.path in
  match Http.Request.normalize_path raw with
  | None -> None
  | Some path ->
      (* Normalization strips trailing slashes; the original target tells
         us whether the client asked for a directory. *)
      let wants_index =
        path = "/"
        || (String.length raw > 0 && raw.[String.length raw - 1] = '/')
      in
      if wants_index then
        let base = if path = "/" then "" else path in
        Some (base ^ "/" ^ t.config.Config.index_file)
      else Some path

let profile t = Simos.Kernel.profile t.kernel

let charge_request t ~bytes =
  let p = profile t in
  Simos.Kernel.charge t.kernel
    (p.Simos.Os_profile.request_base
    +. t.config.Config.extra_request_cpu
    +. (float_of_int bytes *. p.Simos.Os_profile.parse_byte))

let charge_lookup t =
  Simos.Kernel.charge t.kernel (profile t).Simos.Os_profile.cache_lookup

let translate_cached t caches path =
  charge_lookup t;
  Pathname_cache.find caches.pathname path

let align_of t = if t.config.Config.align_headers then Some 32 else None

let header_for t caches (file : Simos.Fs.file) =
  charge_lookup t;
  match Header_cache.find caches.headers file with
  | Some header -> header
  | None ->
      let p = profile t in
      Simos.Kernel.charge t.kernel p.Simos.Os_profile.header_build;
      let header =
        Http.Response.header ~status:Http.Status.Ok
          ~content_type:(Http.Mime.of_path file.Simos.Fs.path)
          ~content_length:file.Simos.Fs.size
          ~last_modified:file.Simos.Fs.mtime
          ~date:(Simos.Kernel.now t.kernel)
          ?align:(align_of t) ()
      in
      Header_cache.insert caches.headers file header;
      header

let ok_response t caches (req : Http.Request.t) file ~keep =
  let header = header_for t caches file in
  {
    status = Http.Status.Ok;
    file = Some file;
    header;
    body_len = file.Simos.Fs.size;
    head_only = req.Http.Request.meth = Http.Request.Head;
    keep;
  }

let error_response t (req : Http.Request.t) status ~keep =
  let p = profile t in
  Simos.Kernel.charge t.kernel p.Simos.Os_profile.header_build;
  let body = Http.Response.error_body status in
  let header =
    Http.Response.header ~status ~content_type:"text/html"
      ~content_length:(String.length body)
      ~date:(Simos.Kernel.now t.kernel)
      ?align:(align_of t) ()
  in
  {
    status;
    file = None;
    header;
    body_len = String.length body;
    head_only = req.Http.Request.meth = Http.Request.Head;
    keep;
  }

(* Dynamic responses are never cached: the body is generated per
   request. *)
let cgi_response t (req : Http.Request.t) ~bytes ~keep =
  let p = profile t in
  Simos.Kernel.charge t.kernel p.Simos.Os_profile.header_build;
  let header =
    Http.Response.header ~status:Http.Status.Ok ~content_type:"text/html"
      ~content_length:bytes
      ~date:(Simos.Kernel.now t.kernel)
      ?align:(align_of t) ()
  in
  {
    status = Http.Status.Ok;
    file = None;
    header;
    body_len = bytes;
    head_only = req.Http.Request.meth = Http.Request.Head;
    keep;
  }

(* Is this a dynamic-content path? *)
let is_cgi_path path =
  String.length path >= 9 && String.sub path 0 9 = "/cgi-bin/"

(* Servers without mmap (the Apache model) copy file data through a
   user buffer before writing: one extra per-byte copy. *)
let charge_body_copy t bytes =
  if t.config.Config.double_buffered_io && bytes > 0 then begin
    let p = profile t in
    Simos.Kernel.charge t.kernel
      (float_of_int bytes *. p.Simos.Os_profile.read_byte)
  end

let misaligned_budget t response =
  if t.config.Config.align_headers then 0
  else begin
    (* Only bytes copied by the same writev as the unpadded header are
       misaligned; later writes start fresh kernel buffers.  The send
       buffer bounds how much one writev can copy. *)
    let p = profile t in
    let first_writev =
      min response.body_len
        (min t.config.Config.io_chunk p.Simos.Os_profile.sndbuf)
    in
    if response.head_only then 0 else first_writev
  end

let finished t response =
  t.completed <- t.completed + 1;
  if response.status <> Http.Status.Ok then t.errors <- t.errors + 1
