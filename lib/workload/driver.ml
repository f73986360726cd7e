type result = {
  label : string;
  os : string;
  clients : int;
  duration : float;
  completed : int;
  errors : int;
  mbits_per_s : float;
  requests_per_s : float;
  cpu_utilization : float;
  disk_utilization : float;
  disk_reads : int;
  ctx_switches_per_s : float;
  helpers_spawned : int;
  cache_capacity_bytes : int;
  latency_p50_ms : float;
  latency_p95_ms : float;
  timeseries : Obs.Recorder.rollup list;
}

let pp_result fmt r =
  Format.fprintf fmt
    "%-10s %-8s clients=%-4d %7.2f Mb/s %8.1f req/s cpu=%4.0f%% disk=%4.0f%% \
     switches/s=%7.0f helpers=%d"
    r.label r.os r.clients r.mbits_per_s r.requests_per_s
    (100. *. r.cpu_utilization)
    (100. *. r.disk_utilization)
    r.ctx_switches_per_s r.helpers_spawned

let request_string ~persistent path =
  if persistent then
    "GET " ^ path ^ " HTTP/1.1\r\nHost: sim.example\r\nUser-Agent: loadgen\r\n\r\n"
  else
    "GET " ^ path ^ " HTTP/1.0\r\nHost: sim.example\r\nUser-Agent: loadgen\r\n\r\n"

(* One closed-loop client: request, wait for the full response, repeat.
   Response times land in [latency] (seconds). *)
let client_loop engine net ~next_path ~persistent ~link_rate ~rtt ~latency
    ~obs_latency () =
  let conn = ref None in
  let rec loop () =
    let path = next_path () in
    let c =
      match !conn with
      | Some c
        when persistent
             && (not (Simos.Net.server_closed c))
             && not (Simos.Net.client_closed c) ->
          c
      | _ ->
          let c = Simos.Net.connect net ~link_rate ~rtt in
          conn := Some c;
          c
    in
    let started = Sim.Engine.now engine in
    Simos.Net.client_send c (request_string ~persistent path);
    (match Simos.Net.client_await_response c with
    | `Ok ->
        let rt = Sim.Engine.now engine -. started in
        Sim.Stat.Histogram.add latency rt;
        Obs.Histogram.record obs_latency rt;
        if not persistent then begin
          Simos.Net.client_close c;
          conn := None
        end
    | `Closed ->
        Simos.Net.client_close c;
        conn := None);
    loop ()
  in
  loop ()

(* Preload the hottest files until the buffer cache is full — steady
   state from the first measured second. *)
let prewarm_files kernel files =
  let cache = Simos.Kernel.cache kernel in
  let fs = Simos.Kernel.fs kernel in
  let capacity = Simos.Buffer_cache.capacity_pages cache in
  let n = Array.length files in
  let rec warm i =
    if i < n && Simos.Buffer_cache.pages cache < capacity then begin
      Simos.Fs.warm_meta fs files.(i);
      Simos.Fs.warm fs files.(i);
      warm (i + 1)
    end
  in
  warm 0

let run ?(seed = 7) ?(clients = 64) ?(persistent = false) ?link_rate
    ?(warmup = 3.) ?(duration = 10.) ?(prewarm = true)
    ?(recorder_interval = 1.0) ~profile ~server ~fileset ~next () =
  let engine = Sim.Engine.create ~seed () in
  let kernel = Simos.Kernel.create engine profile in
  let files = Fileset.install fileset (Simos.Kernel.fs kernel) in
  let srv = Flash.Server.start kernel server in
  if prewarm then prewarm_files kernel files;
  let net = Simos.Kernel.net kernel in
  let link_rate =
    match link_rate with
    | Some r -> r
    | None -> profile.Simos.Os_profile.lan_rate
  in
  let rtt = profile.Simos.Os_profile.rtt in
  let step = ref (-1) in
  let next_path () =
    incr step;
    next !step
  in
  let latency = Sim.Stat.Histogram.create ~lo:0. ~hi:10. ~buckets:2000 in
  let obs_latency = Obs.Histogram.create () in
  for i = 1 to clients do
    ignore
      (Sim.Proc.spawn engine
         ~name:(Printf.sprintf "client-%d" i)
         (client_loop engine net ~next_path ~persistent ~link_rate ~rtt
            ~latency ~obs_latency))
  done;
  ignore (Sim.Engine.run ~until:warmup engine);
  (* Only measure steady-state response times. *)
  Sim.Stat.Histogram.reset latency;
  Obs.Histogram.reset obs_latency;
  let cpu = Simos.Kernel.cpu kernel in
  let disk = Simos.Kernel.disk kernel in
  (* Flight recorder on the virtual clock over the quantities the
     simulator models, registered like the live server's: a quantity
     the live server also measures takes its name, the client-side
     response time and CPU busy time take flash_sim_ names, and what the
     simulator does not model is absent. *)
  let registry = Obs.Registry.create () in
  let c ~name ~help ?labels read =
    Obs.Registry.counter registry ~name ~help ?labels read
  in
  let pathname = [ ("cache", "pathname") ] in
  c ~name:"flash_http_requests_total" ~help:"Responses fully transmitted."
    (fun () -> Flash.Server.completed srv);
  c ~name:"flash_http_errors_total" ~help:"Non-200 responses."
    (fun () -> Flash.Server.errors srv);
  c ~name:"flash_bytes_sent_total" ~help:"Response bytes delivered to clients."
    (fun () -> Simos.Net.delivered_bytes net);
  c ~name:"flash_cache_hits_total" ~help:"Pathname-translation cache hits."
    ~labels:pathname (fun () -> Flash.Server.pathname_hits srv);
  c ~name:"flash_cache_misses_total" ~help:"Pathname-translation cache misses."
    ~labels:pathname (fun () -> Flash.Server.pathname_misses srv);
  Obs.Registry.gauge registry ~name:"flash_active_connections"
    ~help:"Connections draining response bytes through the NIC."
    (fun () -> float_of_int (Simos.Net.active_drains net));
  Obs.Registry.gauge registry ~name:"flash_sim_cpu_busy_seconds"
    ~help:"Cumulative simulated CPU busy time."
    (fun () -> Sim.Cpu.busy_time cpu);
  Obs.Registry.histogram registry ~name:"flash_sim_client_response_seconds"
    ~help:"Client-observed response time, request sent to response received."
    (fun () -> Obs.Histogram.copy obs_latency);
  let recorder =
    Obs.Recorder.create
      ~capacity:(Stdlib.max 1 (int_of_float (Float.ceil (duration /. recorder_interval)) + 1))
      ~interval:recorder_interval
      ~now:(fun () -> Sim.Engine.now engine)
      ~read:(fun () -> Obs.Registry.collect registry)
      ()
  in
  let rec tick_loop () =
    Obs.Recorder.tick recorder;
    Sim.Engine.schedule engine ~delay:recorder_interval tick_loop
  in
  Sim.Engine.schedule engine ~delay:recorder_interval tick_loop;
  let delivered0 = Simos.Net.delivered_bytes net in
  let completed0 = Flash.Server.completed srv in
  let errors0 = Flash.Server.errors srv in
  let cpu_busy0 = Sim.Cpu.busy_time cpu in
  let disk_busy0 = Simos.Disk.busy_time disk in
  let disk_reads0 = Simos.Disk.completed disk in
  let switches0 = Sim.Cpu.switches cpu in
  ignore (Sim.Engine.run ~until:(warmup +. duration) engine);
  let delivered = Simos.Net.delivered_bytes net - delivered0 in
  let completed = Flash.Server.completed srv - completed0 in
  {
    label = server.Flash.Config.label;
    os = profile.Simos.Os_profile.name;
    clients;
    duration;
    completed;
    errors = Flash.Server.errors srv - errors0;
    mbits_per_s = float_of_int delivered *. 8. /. duration /. 1e6;
    requests_per_s = float_of_int completed /. duration;
    cpu_utilization = (Sim.Cpu.busy_time cpu -. cpu_busy0) /. duration;
    disk_utilization = (Simos.Disk.busy_time disk -. disk_busy0) /. duration;
    disk_reads = Simos.Disk.completed disk - disk_reads0;
    ctx_switches_per_s =
      float_of_int (Sim.Cpu.switches cpu - switches0) /. duration;
    helpers_spawned = Flash.Server.helpers_spawned srv;
    cache_capacity_bytes =
      Simos.Memory.cache_capacity (Simos.Kernel.memory kernel);
    latency_p50_ms = 1000. *. Sim.Stat.Histogram.percentile latency 50.;
    latency_p95_ms = 1000. *. Sim.Stat.Histogram.percentile latency 95.;
    timeseries =
      (Obs.Recorder.flush recorder;
       Obs.Recorder.all recorder);
  }
