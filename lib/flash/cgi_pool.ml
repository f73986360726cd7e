type app = { mailbox : (unit -> unit) Sim.Sync.Mailbox.t }

type t = {
  kernel : Simos.Kernel.t;
  cpu : float;
  think : float;
  response_bytes : int;
  footprint : int;
  by_script : (string, app) Hashtbl.t;
  mutable requests : int;
}

let create kernel ~cpu ~think ~response_bytes ~footprint =
  if cpu < 0. || think < 0. then invalid_arg "Cgi_pool.create: negative cost";
  if response_bytes <= 0 then
    invalid_arg "Cgi_pool.create: response_bytes <= 0";
  {
    kernel;
    cpu;
    think;
    response_bytes;
    footprint;
    by_script = Hashtbl.create 16;
    requests = 0;
  }

(* The persistent application: wait for a forwarded request, compute,
   possibly block, deliver.  All charges land on this process. *)
let app_loop t mailbox () =
  let rec loop () =
    let job = Sim.Sync.Mailbox.recv mailbox in
    Simos.Kernel.charge t.kernel t.cpu;
    if t.think > 0. then Sim.Proc.delay t.think;
    job ();
    loop ()
  in
  loop ()

let app_for t script =
  match Hashtbl.find_opt t.by_script script with
  | Some app -> app
  | None ->
      (* First request for this script: the server forks the app. *)
      Simos.Kernel.fork_charge t.kernel ~footprint:t.footprint;
      let app = { mailbox = Sim.Sync.Mailbox.create () } in
      Hashtbl.replace t.by_script script app;
      ignore
        (Sim.Proc.spawn
           (Simos.Kernel.engine t.kernel)
           ~name:("cgi:" ^ script)
           (app_loop t app.mailbox));
      app

let dispatch t ~script ~on_done =
  t.requests <- t.requests + 1;
  let app = app_for t script in
  (* Forward the request over the app's pipe. *)
  Simos.Kernel.charge t.kernel
    (Simos.Kernel.profile t.kernel).Simos.Os_profile.ipc_send;
  let bytes = t.response_bytes in
  Sim.Sync.Mailbox.send app.mailbox (fun () -> on_done ~bytes)

let requests t = t.requests
