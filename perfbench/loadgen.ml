(* The closed-loop generator: one process per connection, each sending
   its own seeded stream and waiting for every reply before the next
   request (HTTP/1.1 clients do not pipeline).  Processes rather than
   domains: domains share stop-the-world minor collections, so on a
   small host one descheduled generator thread would stall the other.
   The coordinator moves the workers through warm-up, a hold (so
   counters are read while no request is in flight), the measured
   window and stop, through a small shared mapping; each worker sends
   its statistics back over a pipe when it stops.  Through the same
   mapping each worker publishes its own CPU time after every request,
   read with getrusage to the microsecond, where /proc reports 10 ms
   ticks. *)

let warm = 0
let hold = 1
let measure = 2
let stop = 3

type stats = {
  samples : Sampler.t;
      (** the measured window; a failure enters at the time it took *)
  mutable warm_failed : int;
  mutable first_failures : string list;
}

(* Slot 0: the phase; slot [1 + i]: worker [i] is parked; slot
   [1 + n + i]: worker [i]'s CPU time in microseconds, of [n] workers. *)
type ctl = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { ctl : ctl; workers : (int * Unix.file_descr) list }

let cpu_us () =
  let t = Unix.times () in
  int_of_float ((t.Unix.tms_utime +. t.Unix.tms_stime) *. 1e6)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let record_failure s msg =
  if List.length s.first_failures < 5 then s.first_failures <- msg :: s.first_failures

let worker ~(w : Workload.t) ~content ~port ~etags ~deadline ~index ~connections ~give_up
    (ctl : ctl) =
  let cpu_slot = 1 + connections + index in
  let s =
    {
      samples = Sampler.create ();
      warm_failed = 0;
      first_failures = [];
    }
  in
  let c = Client.create ~deadline (Client.tcp_connect ~deadline port) in
  let stream = Workload.stream w ~index in
  let rec loop () =
    let ph = ctl.{0} in
    if ph = stop || Unix.gettimeofday () > give_up then ()
    else if ph = hold then begin
      ctl.{1 + index} <- 1;
      while ctl.{0} = hold && Unix.gettimeofday () < give_up do
        Unix.sleepf 0.0005
      done;
      ctl.{1 + index} <- 0;
      loop ()
    end
    else begin
      let r = Workload.next stream in
      let etag = etags.(r.Workload.file) in
      let req = Workload.request_line ~etag w r in
      let t0 = now_ns () in
      let res = Client.exchange c req in
      let t1 = now_ns () in
      ctl.{cpu_slot} <- cpu_us ();
      let verdict =
        match res with
        | Error f -> Error (Client.failure_to_string f)
        | Ok resp -> (
            match Verify.check content (Verify.expect w ~etag r) resp with
            | Ok () -> Ok resp.Client.body_len
            | Error e ->
                (* A response that failed verification leaves the
                   connection in an unknown state. *)
                Client.disconnect c;
                Error e)
      in
      let what = w.Workload.files.(r.Workload.file).Workload.path in
      if ph = measure then begin
        let bytes =
          match verdict with
          | Ok n -> n
          | Error e ->
              record_failure s (what ^ ": " ^ e);
              -1
        in
        Sampler.add s.samples ~ends:(float_of_int t1 *. 1e-9)
          ~lat:(float_of_int (t1 - t0) *. 1e-6)
          ~bytes
      end
      else begin
        match verdict with
        | Ok _ -> ()
        | Error e ->
            s.warm_failed <- s.warm_failed + 1;
            record_failure s ("warm-up " ^ what ^ ": " ^ e)
      end;
      loop ()
    end
  in
  loop ();
  Client.disconnect c;
  s

(* [lifetime] bounds how long a worker runs if the coordinator never
   says stop. *)
let start ~w ~content ~port ~etags ~deadline ~connections ~ctl_path ~lifetime =
  let fd = Unix.openfile ctl_path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  let ctl =
    Bigarray.array1_of_genarray
      (Unix.map_file fd Bigarray.int Bigarray.c_layout true [| (2 * connections) + 1 |])
  in
  Unix.close fd;
  Bigarray.Array1.fill ctl 0;
  ctl.{0} <- warm;
  let give_up = Unix.gettimeofday () +. lifetime in
  flush_all ();
  let workers =
    List.init connections (fun index ->
        let r, wr = Unix.pipe ~cloexec:true () in
        match Unix.fork () with
        | 0 ->
            Unix.close r;
            let code =
              match
                worker ~w ~content ~port ~etags ~deadline ~index ~connections ~give_up ctl
              with
              | s ->
                  let oc = Unix.out_channel_of_descr wr in
                  Marshal.to_channel oc s [];
                  close_out oc;
                  0
              | exception _ -> 1
            in
            Unix._exit code
        | pid ->
            Unix.close wr;
            (pid, r))
  in
  { ctl; workers }

let parked t = List.for_all (fun i -> t.ctl.{1 + i} = 1) (List.init (List.length t.workers) Fun.id)

(* Stop issuing requests and wait until every worker has finished the
   one in flight. *)
let hold_all t =
  t.ctl.{0} <- hold;
  let give_up = Unix.gettimeofday () +. 30. in
  while not (parked t) do
    if Unix.gettimeofday () > give_up then failwith "generator workers did not park";
    Unix.sleepf 0.0002
  done

let set t phase = t.ctl.{0} <- phase

(* CPU seconds the workers have used, as of each one's last request. *)
let cpu_seconds t =
  let n = List.length t.workers in
  let us = ref 0 in
  for i = 0 to n - 1 do
    us := !us + t.ctl.{1 + n + i}
  done;
  float_of_int !us *. 1e-6

(* Stop the workers and collect their statistics. *)
let finish t =
  t.ctl.{0} <- stop;
  List.map
    (fun (pid, r) ->
      let ic = Unix.in_channel_of_descr r in
      let s = try Some (Marshal.from_channel ic : stats) with End_of_file | Failure _ -> None in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match s with Some s -> s | None -> failwith "a generator worker died")
    t.workers

(* Kill workers still running after an error elsewhere. *)
let abort t =
  List.iter
    (fun (pid, r) ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      try Unix.close r with Unix.Unix_error _ -> ())
    t.workers
