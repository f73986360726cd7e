(** Experiment runner: builds a machine, installs a fileset, starts a
    server, spawns closed-loop HTTP clients, and measures steady-state
    throughput over a simulated interval.

    Clients model the paper's event-driven load generator: each issues
    requests as fast as the server completes them, over a fresh
    connection per request (HTTP/1.0) or a persistent one (HTTP/1.1,
    used by the WAN experiment).  Client work costs no server CPU. *)

type result = {
  label : string;
  os : string;
  clients : int;
  duration : float;  (** measured interval, simulated seconds *)
  completed : int;  (** responses finished during the interval *)
  errors : int;
  mbits_per_s : float;  (** response bytes delivered to clients *)
  requests_per_s : float;
  cpu_utilization : float;
  disk_utilization : float;
  disk_reads : int;
  ctx_switches_per_s : float;
  helpers_spawned : int;
  cache_capacity_bytes : int;  (** buffer cache size after reservations *)
  latency_p50_ms : float;  (** steady-state response time percentiles *)
  latency_p95_ms : float;
  timeseries : Obs.Recorder.rollup list;
      (** per-window flight-recorder rollups over the measured interval,
          on the virtual clock, oldest first — the simulated counterpart
          of the live server's [?window=N] view.  Series the live server
          also measures carry its names ([flash_http_requests_total],
          [flash_bytes_sent_total], [flash_cache_hits_total{cache="pathname"}],
          ...); client response time and CPU busy time are
          [flash_sim_client_response_seconds] and
          [flash_sim_cpu_busy_seconds]. *)
}

val pp_result : Format.formatter -> result -> unit

(** [run ~profile ~server ~fileset ~next ()] — [next step] gives the path
    requested at global step [step] (clients share the stream, like the
    paper's log replay).

    @param clients    concurrent simulated clients (default 64)
    @param persistent reuse connections, HTTP/1.1 (default false)
    @param prewarm    preload the most popular files into the buffer
                      cache up to capacity before starting (default
                      true; the paper measures steady state)
    @param warmup     simulated seconds before measurement (default 3)
    @param duration   measured simulated seconds (default 10)
    @param recorder_interval flight-recorder window length, simulated
                      seconds (default 1) *)
val run :
  ?seed:int ->
  ?clients:int ->
  ?persistent:bool ->
  ?link_rate:float ->
  ?warmup:float ->
  ?duration:float ->
  ?prewarm:bool ->
  ?recorder_interval:float ->
  profile:Simos.Os_profile.t ->
  server:Flash.Config.t ->
  fileset:Fileset.t ->
  next:(int -> string) ->
  unit ->
  result
