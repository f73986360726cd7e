type architecture = Sped | Amped | Mp | Mt

type cgi = { cgi_cpu : float; cgi_think : float; cgi_bytes : int }

type t = {
  label : string;
  arch : architecture;
  processes : int;
  max_helpers : int;
  pathname_cache_entries : int;
  header_cache : bool;
  mmap_cache_bytes : int;
  mmap_chunk_bytes : int;
  align_headers : bool;
  small_request_priority : bool;
  extra_request_cpu : float;
  double_buffered_io : bool;
  residency_heuristic : bool;
  cgi : cgi option;
  io_chunk : int;
  index_file : string;
  trace : bool;
  cache_policy : Flash_cache.Policy.kind;
  cache_budget_bytes : int option;
}

let mib n = n * 1024 * 1024
let kib n = n * 1024

let flash =
  {
    label = "Flash";
    arch = Amped;
    processes = 1;
    max_helpers = 16;
    pathname_cache_entries = 6000;
    header_cache = true;
    mmap_cache_bytes = mib 100;
    mmap_chunk_bytes = kib 64;
    align_headers = true;
    small_request_priority = false;
    extra_request_cpu = 0.;
    double_buffered_io = false;
    residency_heuristic = false;
    cgi = Some { cgi_cpu = 1e-3; cgi_think = 3e-3; cgi_bytes = 4096 };
    io_chunk = kib 64;
    index_file = "index.html";
    trace = false;
    cache_policy = Flash_cache.Policy.Lru;
    cache_budget_bytes = None;
  }

let flash_sped = { flash with label = "SPED"; arch = Sped; max_helpers = 0 }

(* Flash for operating systems without mincore/mlock: the S5.7
   feedback-based residency predictor replaces the mincore test;
   mispredictions block the event loop like SPED would. *)
let flash_heuristic =
  { flash with label = "Flash-H"; residency_heuristic = true }

(* Each MP process replicates the caches, so each gets a small slice
   (the paper configures MP caches "smaller since they are replicated in
   each process"). *)
let flash_mp =
  {
    flash with
    label = "MP";
    arch = Mp;
    processes = 32;
    max_helpers = 0;
    pathname_cache_entries = 200;
    mmap_cache_bytes = mib 3;
  }

let flash_mt =
  { flash with label = "MT"; arch = Mt; processes = 32; max_helpers = 0 }

let apache =
  {
    flash_mp with
    label = "Apache";
    pathname_cache_entries = 0;
    header_cache = false;
    mmap_cache_bytes = 0;
    align_headers = false;
    (* The paper attributes Apache's gap mostly to missing optimizations;
       a modest per-request handicap stands in for its heavier request
       machinery (logging, per-request pools, config matching). *)
    extra_request_cpu = 120e-6;
    double_buffered_io = true;
    (* Apache 1.3 moves file data in small buffers rather than 64 KB
       mapped chunks: more syscalls per request and, cold, more disk
       operations per large file (no read clustering). *)
    mmap_chunk_bytes = kib 16;
    io_chunk = kib 16;
  }

let zeus ~processes =
  {
    flash_sped with
    label = "Zeus";
    processes;
    align_headers = false;
    small_request_priority = true;
  }

let all_servers =
  [ flash_sped; flash; zeus ~processes:1; flash_mt; flash_mp; apache ]

let with_caches t ~pathname ~mmap ~header =
  {
    t with
    pathname_cache_entries = (if pathname then t.pathname_cache_entries else 0);
    mmap_cache_bytes = (if mmap then t.mmap_cache_bytes else 0);
    header_cache = header;
  }
