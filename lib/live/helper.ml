type result = Found of { size : int; mtime : float } | Missing

(* Span boundaries for the job, carried back over the completion
   channel so the main loop can stitch helper-attributed spans into the
   request's trace: queue wait is [enqueued, started], the blocking
   disk work [started, finished]. *)
type completion = {
  key : int;
  result : result;
  enqueued : float;
  started : float;
  finished : float;
}

type job = { key : int; path : string; enqueued : float; low : bool }

type t = {
  queue : job Queue.t;
  lowq : job Queue.t;  (* prefetch lane: served only when [queue] is empty *)
  mutex : Mutex.t;
  cond : Condition.t;
  notify_read : Unix.file_descr;
  notify_write : Unix.file_descr;
  results : (int, completion) Hashtbl.t;  (* guarded by mutex *)
  clock : unit -> float;
  slow_read : (string -> unit) option;
  depth : Obs.Gauge.t;  (* queued + in-flight CLIENT jobs; guarded by mutex *)
  job_latency : Obs.Histogram.t;  (* client dispatch-to-completion; mutex *)
  max_queued : int option;  (* bound on *queued* jobs; in-flight don't count *)
  max_low_queued : int;  (* bound on queued low-priority jobs *)
  low_cap : int;  (* workers allowed on low jobs at once: one stays free *)
  mutable in_flight : int;  (* client jobs popped but not yet completed *)
  mutable low_in_flight : int;
  mutable rejected : int;  (* dispatches refused because the queue was full *)
  mutable stop : bool;
  mutable dispatched : int;
  mutable low_dispatched : int;
  mutable low_rejected : int;
  mutable low_completed : int;
  mutable threads : Thread.t list;
}

(* Touch every page of the file: after this, the main process's own
   read copy or mapping will not wait for the disk.  A fixed 64 KB stride per read
   call; [buf] is the calling worker's reusable scratch, so a stream of
   jobs costs no per-job allocation. *)
let touch_file ?slow_read ~buf path =
  match Unix.stat path with
  | exception Unix.Unix_error _ -> Missing
  | st when st.Unix.st_kind <> Unix.S_REG -> Missing
  | st -> (
      (* The injected media delay models the cold-disk read itself, so it
         runs here — in helper context — never in the caller's. *)
      (match slow_read with Some f -> f path | None -> ());
      match Unix.openfile path [ Unix.O_RDONLY ] 0 with
      | exception Unix.Unix_error _ -> Missing
      | fd ->
          let rec loop () =
            match Unix.read fd buf 0 65536 with
            | 0 -> ()
            | _ -> loop ()
            | exception Unix.Unix_error _ -> ()
          in
          loop ();
          Unix.close fd;
          Found { size = st.Unix.st_size; mtime = st.Unix.st_mtime })

let worker t () =
  let buf = Bytes.create 65536 in
  (* A low job is runnable only when no client job waits and fewer than
     [low_cap] workers are already on prefetch work — so at least one
     worker is always free for the next client-triggered read. *)
  let low_runnable () =
    Queue.is_empty t.queue
    && (not (Queue.is_empty t.lowq))
    && t.low_in_flight < t.low_cap
  in
  let rec loop () =
    Mutex.lock t.mutex;
    while Queue.is_empty t.queue && (not (low_runnable ())) && not t.stop do
      Condition.wait t.cond t.mutex
    done;
    if t.stop then Mutex.unlock t.mutex
    else begin
      let job =
        if not (Queue.is_empty t.queue) then Queue.pop t.queue
        else Queue.pop t.lowq
      in
      if job.low then t.low_in_flight <- t.low_in_flight + 1
      else t.in_flight <- t.in_flight + 1;
      Mutex.unlock t.mutex;
      let started = t.clock () in
      let result = touch_file ?slow_read:t.slow_read ~buf job.path in
      let finished = t.clock () in
      Mutex.lock t.mutex;
      Hashtbl.replace t.results job.key
        { key = job.key; result; enqueued = job.enqueued; started; finished };
      if job.low then begin
        t.low_in_flight <- t.low_in_flight - 1;
        t.low_completed <- t.low_completed + 1;
        (* A low slot just freed up; another worker may be parked. *)
        Condition.signal t.cond
      end
      else begin
        Obs.Histogram.record t.job_latency (finished -. job.enqueued);
        Obs.Gauge.decr t.depth;
        t.in_flight <- t.in_flight - 1
      end;
      Mutex.unlock t.mutex;
      (* Wake the select loop; one byte per completion. *)
      (try ignore (Unix.write t.notify_write (Bytes.of_string "x") 0 1)
       with Unix.Unix_error _ -> ());
      loop ()
    end
  in
  loop ()

let create ?(clock = Unix.gettimeofday) ?slow_read ?max_queued
    ?(max_low_queued = 64) ~helpers () =
  if helpers <= 0 then invalid_arg "Helper.create: helpers <= 0";
  (match max_queued with
  | Some n when n < 0 -> invalid_arg "Helper.create: max_queued < 0"
  | _ -> ());
  if max_low_queued < 0 then invalid_arg "Helper.create: max_low_queued < 0";
  let notify_read, notify_write = Unix.pipe () in
  Unix.set_nonblock notify_read;
  let t =
    {
      queue = Queue.create ();
      lowq = Queue.create ();
      mutex = Mutex.create ();
      cond = Condition.create ();
      notify_read;
      notify_write;
      results = Hashtbl.create 64;
      clock;
      slow_read;
      depth = Obs.Gauge.create ();
      job_latency = Obs.Histogram.create ();
      max_queued;
      max_low_queued;
      low_cap = max 1 (helpers - 1);
      in_flight = 0;
      low_in_flight = 0;
      rejected = 0;
      stop = false;
      dispatched = 0;
      low_dispatched = 0;
      low_rejected = 0;
      low_completed = 0;
      threads = [];
    }
  in
  t.threads <- List.init helpers (fun _ -> Thread.create (worker t) ());
  t

let notify_fd t = t.notify_read

let dispatch t ~key ~path =
  Mutex.lock t.mutex;
  let admitted =
    match t.max_queued with
    | Some cap when Queue.length t.queue >= cap ->
        t.rejected <- t.rejected + 1;
        false
    | _ ->
        Queue.push { key; path; enqueued = t.clock (); low = false } t.queue;
        t.dispatched <- t.dispatched + 1;
        Obs.Gauge.incr t.depth;
        Condition.signal t.cond;
        true
  in
  Mutex.unlock t.mutex;
  admitted

let dispatch_low t ~key ~path =
  Mutex.lock t.mutex;
  let admitted =
    if Queue.length t.lowq >= t.max_low_queued then begin
      t.low_rejected <- t.low_rejected + 1;
      false
    end
    else begin
      Queue.push { key; path; enqueued = t.clock (); low = true } t.lowq;
      t.low_dispatched <- t.low_dispatched + 1;
      Condition.signal t.cond;
      true
    end
  in
  Mutex.unlock t.mutex;
  admitted

let drain t =
  (* Clear wake-up bytes. *)
  let buf = Bytes.create 256 in
  let rec clear () =
    match Unix.read t.notify_read buf 0 256 with
    | n when n > 0 -> clear ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
  in
  clear ();
  Mutex.lock t.mutex;
  let out = Hashtbl.fold (fun _key c acc -> c :: acc) t.results [] in
  Hashtbl.reset t.results;
  Mutex.unlock t.mutex;
  out

let dispatched t = t.dispatched

let queue_depth t =
  Mutex.lock t.mutex;
  let d = Obs.Gauge.value t.depth in
  Mutex.unlock t.mutex;
  d

let queue_depth_hwm t =
  Mutex.lock t.mutex;
  let d = Obs.Gauge.high_watermark t.depth in
  Mutex.unlock t.mutex;
  d

let queued t =
  Mutex.lock t.mutex;
  let n = Queue.length t.queue in
  Mutex.unlock t.mutex;
  n

let in_flight t =
  Mutex.lock t.mutex;
  let n = t.in_flight in
  Mutex.unlock t.mutex;
  n

let rejected t =
  Mutex.lock t.mutex;
  let n = t.rejected in
  Mutex.unlock t.mutex;
  n

let low_dispatched t =
  Mutex.lock t.mutex;
  let n = t.low_dispatched in
  Mutex.unlock t.mutex;
  n

let low_rejected t =
  Mutex.lock t.mutex;
  let n = t.low_rejected in
  Mutex.unlock t.mutex;
  n

let low_completed t =
  Mutex.lock t.mutex;
  let n = t.low_completed in
  Mutex.unlock t.mutex;
  n

let low_queued t =
  Mutex.lock t.mutex;
  let n = Queue.length t.lowq + t.low_in_flight in
  Mutex.unlock t.mutex;
  n

let job_latency t =
  Mutex.lock t.mutex;
  let h = Obs.Histogram.copy t.job_latency in
  Mutex.unlock t.mutex;
  h

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex;
  List.iter Thread.join t.threads;
  (try Unix.close t.notify_read with Unix.Unix_error _ -> ());
  try Unix.close t.notify_write with Unix.Unix_error _ -> ()
