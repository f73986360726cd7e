let () =
  Alcotest.run "flash"
    [
      ("sim.heap", Test_heap.suite);
      ("sim.rng", Test_rng.suite);
      ("sim.engine", Test_engine.suite);
      ("sim.proc", Test_proc.suite);
      ("sim.sync", Test_sync.suite);
      ("sim.cpu", Test_cpu.suite);
      ("sim.stat", Test_stat.suite);
      ("simos.memory", Test_memory.suite);
      ("simos.pollable", Test_pollable.suite);
      ("simos.buffer_cache", Test_buffer_cache.suite);
      ("simos.disk", Test_disk.suite);
      ("simos.fs", Test_fs.suite);
      ("simos.net", Test_net.suite);
      ("simos.pipe", Test_pipe.suite);
      ("simos.kernel", Test_kernel.suite);
      ("http", Test_http.suite);
      ("cache.policy", Test_cache_policy.suite);
      ("flash.config", Test_config.suite);
      ("flash.caches", Test_caches.suite);
      ("flash.runtime", Test_runtime.suite);
      ("flash.server", Test_server_sim.suite);
      ("workload", Test_workload.suite);
      ("workload.specweb", Test_specweb.suite);
      ("obs", Test_obs.suite);
      ("evio", Test_evio.suite);
      ("live", Test_live.suite);
      ("live.features", Test_live_features.suite);
      ("live.sendpath", Test_sendpath.suite);
      ("live.http11", Test_http11.suite);
      ("live.status", Test_status.suite);
      ("live.metrics", Test_metrics.suite);
      ("live.trace", Test_trace.suite);
      ("live.fill", Test_fill.suite);
      ("cache.lru_model", Test_lru_model.suite);
      ("flash.helper_pool", Test_helper_pool.suite);
      ("flash.extensions", Test_extensions.suite);
      ("robustness", Test_robustness.suite);
      ("conservation", Test_conservation.suite);
      ("orderings", Test_orderings.suite);
      ("guard", Test_guard.suite);
      (* Last on purpose: these tests spawn OCaml domains, and OCaml 5
         forbids Unix.fork once any domain has ever been created — every
         MP (fork) test above must run before the first of these. *)
      ("warm", Test_warm.suite);
      ("live.sharded", Test_sharded.suite);
      ("live.miss_path", Test_miss_path.suite);
      ("live.alloc", Test_alloc.suite);
    ]
