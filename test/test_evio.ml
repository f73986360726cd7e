(* The event-readiness subsystem: timer-wheel properties (qcheck, with
   an injected clock), backend unit behaviour over every backend this
   machine offers, and end-to-end server checks — a backend × mode
   parity matrix, wheel-driven idle reaping, and the EMFILE shedding
   path via the accept_fault seam. *)

module Wheel = Evio.Timer_wheel
module Server = Flash_live.Server
module Client = Flash_live.Client

(* ------------------------------------------------------------------ *)
(* Timer wheel: unit cases                                             *)
(* ------------------------------------------------------------------ *)

let test_wheel_basic () =
  let w = Wheel.create ~now:0. () in
  Alcotest.(check (option (float 0.))) "empty wheel: no deadline" None
    (Wheel.next_deadline w);
  let _a = Wheel.schedule w ~at:0.3 "a" in
  let _b = Wheel.schedule w ~at:0.1 "b" in
  let _c = Wheel.schedule w ~at:0.2 "c" in
  (match Wheel.next_deadline w with
  | Some d -> Alcotest.(check bool) "deadline not late" true (d <= 0.1 +. 1e-9)
  | None -> Alcotest.fail "expected a deadline");
  Alcotest.(check (list string)) "nothing before first deadline" []
    (Wheel.advance w ~now:0.05);
  Alcotest.(check (list string)) "fires in deadline order" [ "b"; "c" ]
    (Wheel.advance w ~now:0.25);
  Alcotest.(check (list string)) "rest fires later" [ "a" ]
    (Wheel.advance w ~now:0.35);
  Alcotest.(check int) "drained" 0 (Wheel.pending w)

let test_wheel_cancel_reschedule () =
  let w = Wheel.create ~now:0. () in
  let a = Wheel.schedule w ~at:0.1 "a" in
  let b = Wheel.schedule w ~at:0.2 "b" in
  Wheel.cancel w a;
  let b' = Wheel.reschedule w b ~at:0.5 in
  Alcotest.(check (list string)) "cancelled and moved timers don't fire" []
    (Wheel.advance w ~now:0.3);
  Alcotest.(check (list string)) "rescheduled fires at new deadline" [ "b" ]
    (Wheel.advance w ~now:0.6);
  ignore b'

let test_wheel_overdue_and_far () =
  let w = Wheel.create ~slots:8 ~tick:0.05 ~now:10. () in
  (* Overdue at scheduling time: must still fire, immediately. *)
  let _p = Wheel.schedule w ~at:9. "past" in
  (* Beyond one wheel rotation (8 * 0.05 = 0.4 s): must not fire early. *)
  let _f = Wheel.schedule w ~at:12. "far" in
  Alcotest.(check (list string)) "overdue fires at once" [ "past" ]
    (Wheel.advance w ~now:10.);
  Alcotest.(check (list string)) "far entry doesn't fire a rotation early" []
    (Wheel.advance w ~now:10.5);
  Alcotest.(check (list string)) "far entry fires on time" [ "far" ]
    (Wheel.advance w ~now:12.1)

(* ------------------------------------------------------------------ *)
(* Timer wheel: properties                                             *)
(* ------------------------------------------------------------------ *)

(* Arbitrary schedules: deadlines in [0, 2] s, advanced in random
   steps.  The invariants: nothing fires before its deadline, firing
   order is deadline order, and everything live fires once the clock
   passes the last deadline. *)
let wheel_schedule_arb =
  QCheck.(
    pair
      (list_of_size Gen.(int_range 0 40) (float_bound_inclusive 2.0))
      (list_of_size Gen.(int_range 1 20) (float_bound_inclusive 0.3)))

let prop_wheel_no_early_all_eventually (deadlines, steps) =
  let w = Wheel.create ~slots:32 ~tick:0.02 ~now:0. () in
  List.iteri (fun i at -> ignore (Wheel.schedule w ~at (i, at))) deadlines;
  let fired = ref [] in
  let now = ref 0. in
  List.iter
    (fun step ->
      now := !now +. step;
      let batch = Wheel.advance w ~now:!now in
      List.iter
        (fun (i, at) ->
          if at > !now +. 1e-9 then
            QCheck.Test.fail_reportf "timer %d fired at %f before deadline %f"
              i !now at)
        batch;
      fired := !fired @ batch)
    steps;
  (* Push past every deadline: all live timers must have fired. *)
  now := 3.5;
  fired := !fired @ Wheel.advance w ~now:!now;
  List.length !fired = List.length deadlines && Wheel.pending w = 0

let prop_wheel_fire_order (deadlines, steps) =
  let w = Wheel.create ~slots:32 ~tick:0.02 ~now:0. () in
  List.iteri (fun i at -> ignore (Wheel.schedule w ~at (i, at))) deadlines;
  let now = ref 0. in
  let ok = ref true in
  List.iter
    (fun step ->
      now := !now +. step;
      let batch = Wheel.advance w ~now:!now in
      let ds = List.map snd batch in
      if ds <> List.sort compare ds then ok := false)
    (steps @ [ 4.0 ]);
  !ok

let prop_wheel_cancelled_never_fire deadlines =
  let w = Wheel.create ~slots:32 ~tick:0.02 ~now:0. () in
  let timers =
    List.mapi (fun i at -> (i, Wheel.schedule w ~at (i, at))) deadlines
  in
  (* Cancel every even-indexed timer. *)
  List.iter (fun (i, tm) -> if i mod 2 = 0 then Wheel.cancel w tm) timers;
  let batch = Wheel.advance w ~now:3.5 in
  List.for_all (fun (i, _) -> i mod 2 = 1) batch
  && List.length batch = List.length (List.filter (fun (i, _) -> i mod 2 = 1) timers)

(* Random schedule / cancel / reschedule / advance sequences.  After
   every step, [next_deadline] is never later than the earliest live
   deadline, and never earlier than the earliest deadline the wheel may
   still store.  A cancelled entry is stored until the wheel purges it;
   by the time an advance passes its deadline it has, so the lower
   bound counts cancelled entries whose deadline is still ahead. *)
type wheel_op =
  | Schedule of float  (* offset from the cursor; negative: overdue *)
  | Cancel of int
  | Reschedule of int * float
  | Advance of float

let wheel_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun x -> Schedule x) (float_range (-0.2) 2.0));
        (2, map (fun k -> Cancel k) (int_bound 1000));
        (2, map2 (fun k x -> Reschedule (k, x)) (int_bound 1000) (float_range 0. 2.0));
        (3, map (fun x -> Advance x) (float_bound_inclusive 0.3));
      ])

let show_wheel_op = function
  | Schedule x -> Printf.sprintf "schedule %+.3f" x
  | Cancel k -> Printf.sprintf "cancel #%d" k
  | Reschedule (k, x) -> Printf.sprintf "reschedule #%d %+.3f" k x
  | Advance x -> Printf.sprintf "advance %.3f" x

let wheel_ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_wheel_op ops))
    QCheck.Gen.(list_size (int_range 1 120) wheel_op_gen)

type model_entry = {
  at : float;
  timer : int Wheel.timer;
  mutable cancelled : bool;
  mutable gone : bool;  (* fired, or cancelled and passed by an advance *)
}

let prop_wheel_next_deadline_bounds ops =
  let w = Wheel.create ~slots:16 ~tick:0.02 ~now:0. () in
  let entries = ref [||] and now = ref 0. in
  let add at =
    let e = { at; timer = Wheel.schedule w ~at 0; cancelled = false; gone = false } in
    entries := Array.append !entries [| e |]
  in
  let nth k = !entries.(k mod Array.length !entries) in
  let check op =
    let live, stored =
      Array.fold_left
        (fun (live, stored) e ->
          if e.gone then (live, stored)
          else
            ( (if e.cancelled then live else Float.min live e.at),
              Float.min stored e.at ))
        (infinity, infinity) !entries
    in
    match Wheel.next_deadline w with
    | None ->
        if Float.is_finite live then
          QCheck.Test.fail_reportf "after %s: None with a live deadline %.4f"
            (show_wheel_op op) live
    | Some d ->
        if d > live then
          QCheck.Test.fail_reportf "after %s: %.4f later than the live %.4f"
            (show_wheel_op op) d live;
        if d < stored then
          QCheck.Test.fail_reportf
            "after %s: %.4f earlier than any stored deadline (%.4f)"
            (show_wheel_op op) d stored
  in
  List.iter
    (fun op ->
      (match op with
      | Schedule x -> add (!now +. x)
      | Cancel k when Array.length !entries > 0 ->
          let e = nth k in
          Wheel.cancel w e.timer;
          if not e.gone then e.cancelled <- true
      | Reschedule (k, x) when Array.length !entries > 0 ->
          let e = nth k in
          if not e.gone then e.cancelled <- true;
          let at = !now +. x in
          let timer = Wheel.reschedule w e.timer ~at in
          entries :=
            Array.append !entries [| { at; timer; cancelled = false; gone = false } |]
      | Cancel _ | Reschedule _ -> ()
      | Advance x ->
          now := !now +. x;
          ignore (Wheel.advance w ~now:!now);
          Array.iter (fun e -> if e.at <= !now then e.gone <- true) !entries);
      check op)
    ops;
  true

(* ------------------------------------------------------------------ *)
(* Backends: unit behaviour over every available backend               *)
(* ------------------------------------------------------------------ *)

(* A wait's ready set as a list, in the backend's order. *)
type event = { fd : Unix.file_descr; readable : bool; writable : bool }

let wait b ~timeout_ms =
  List.init (Evio.Backend.wait b ~timeout_ms) (fun i ->
      {
        fd = Evio.Backend.ready_fd b i;
        readable = Evio.Backend.readable b i;
        writable = Evio.Backend.writable b i;
      })

let each_backend f =
  List.iter
    (fun kind ->
      let name = Evio.name kind in
      let b = Evio.Backend.create kind in
      Fun.protect ~finally:(fun () -> Evio.Backend.close b) (fun () -> f name b))
    (Evio.all_available ())

let test_backend_pipe_readiness () =
  each_backend (fun name b ->
      let r, w = Unix.pipe () in
      Fun.protect
        ~finally:(fun () -> Unix.close r; Unix.close w)
        (fun () ->
          Evio.Backend.register b r ~read:true ~write:false;
          Alcotest.(check (list int))
            (name ^ ": empty pipe not readable")
            []
            (List.map (fun _ -> 0) (wait b ~timeout_ms:0));
          ignore (Unix.write w (Bytes.of_string "x") 0 1);
          (match wait b ~timeout_ms:1000 with
          | [ ev ] ->
              Alcotest.(check bool) (name ^ ": readable") true ev.readable
          | evs ->
              Alcotest.failf "%s: expected 1 event, got %d" name
                (List.length evs));
          (* Write side: a fresh pipe is writable. *)
          Evio.Backend.register b w ~read:false ~write:true;
          let evs = wait b ~timeout_ms:1000 in
          Alcotest.(check bool)
            (name ^ ": write side reported writable")
            true
            (List.exists (fun e -> e.fd = w && e.writable) evs);
          (* Interest off: no events at all. *)
          Evio.Backend.modify b r ~read:false ~write:false;
          Evio.Backend.modify b w ~read:false ~write:false;
          Alcotest.(check int)
            (name ^ ": no interest, no events")
            0
            (List.length (wait b ~timeout_ms:0));
          (* Interest back on after parking: events return. *)
          Evio.Backend.modify b r ~read:true ~write:false;
          Alcotest.(check bool)
            (name ^ ": re-armed after parking")
            true
            (wait b ~timeout_ms:1000 <> []);
          Evio.Backend.deregister b r;
          Alcotest.(check int)
            (name ^ ": deregistered fd silent")
            0
            (List.length (wait b ~timeout_ms:0))))

let test_backend_timeout () =
  each_backend (fun name b ->
      let r, w = Unix.pipe () in
      Fun.protect
        ~finally:(fun () -> Unix.close r; Unix.close w)
        (fun () ->
          Evio.Backend.register b r ~read:true ~write:false;
          let t0 = Unix.gettimeofday () in
          let evs = wait b ~timeout_ms:50 in
          let dt = Unix.gettimeofday () -. t0 in
          Alcotest.(check int) (name ^ ": timeout yields no events") 0
            (List.length evs);
          Alcotest.(check bool)
            (name ^ ": timeout respected")
            true (dt >= 0.04 && dt < 1.0)))

let test_of_string () =
  Alcotest.(check bool) "select parses" true
    (Evio.of_string "select" = Ok Evio.Select);
  Alcotest.(check bool) "poll parses" true (Evio.of_string "poll" = Ok Evio.Poll);
  (match Evio.of_string "auto" with
  | Ok k -> Alcotest.(check bool) "auto is available" true (Evio.available k)
  | Error e -> Alcotest.fail e);
  match Evio.of_string "kqueue" with
  | Ok _ -> Alcotest.fail "kqueue should not parse"
  | Error msg ->
      Alcotest.(check bool) "error lists valid names" true
        (Helpers.contains ~affix:"select" msg)

(* The live server waits on the best backend the system has unless told
   otherwise: epoll wherever the kernel has it. *)
let test_server_default () =
  let backend = (Server.default_config ~docroot:".").Server.event_backend in
  Alcotest.(check string) "default_config's backend is the best available"
    (Evio.name (Evio.best_available ()))
    (Evio.name backend);
  if Evio.available Evio.Epoll then
    Alcotest.(check string) "epoll where the kernel has it" "epoll"
      (Evio.name backend)

(* A descriptor closed before it was deregistered is pruned by the
   next waits (select: the EBADF wait marks it; poll: POLLNVAL; epoll:
   the kernel dropped it at close), and the loop keeps hearing the
   descriptors still open. *)
let test_backend_prunes_closed () =
  each_backend (fun name b ->
      let r1, w1 = Unix.pipe () and r2, w2 = Unix.pipe () in
      Fun.protect
        ~finally:(fun () -> List.iter Unix.close [ w1; r2; w2 ])
        (fun () ->
          Evio.Backend.register b r1 ~read:true ~write:false;
          Evio.Backend.register b r2 ~read:true ~write:false;
          ignore (Unix.write_substring w2 "x" 0 1);
          Unix.close r1;
          let heard = ref false in
          for _ = 1 to 3 do
            List.iter
              (fun ev -> if ev.fd = r2 && ev.readable then heard := true)
              (wait b ~timeout_ms:0)
          done;
          Alcotest.(check bool) (name ^ ": open fd still heard") true !heard;
          if Evio.Backend.kind b <> Evio.Epoll then
            Alcotest.(check int) (name ^ ": closed fd pruned") 1
              (Evio.Backend.fd_count b)))

(* A wait releases the runtime lock, and another thread may collect
   meanwhile: the interest arrays a first wait builds are young, so the
   collection moves them, and the results must still land where the
   loop reads them. *)
let test_wait_survives_collection () =
  List.iter
    (fun kind ->
      for _ = 1 to 20 do
        let b = Evio.Backend.create kind in
        let r, w = Unix.pipe () in
        Evio.Backend.register b r ~read:true ~write:false;
        let writer =
          Thread.create
            (fun () ->
              Thread.delay 0.005;
              Gc.minor ();
              ignore (Unix.write_substring w "x" 0 1))
            ()
        in
        let evs = wait b ~timeout_ms:2000 in
        Thread.join writer;
        Evio.Backend.close b;
        Unix.close r;
        Unix.close w;
        match evs with
        | [ ev ] when ev.fd = r && ev.readable -> ()
        | evs ->
            Alcotest.failf "%s: %d events after a collection during the wait"
              (Evio.name kind) (List.length evs)
      done)
    (List.filter (fun k -> k <> Evio.Epoll) (Evio.all_available ()))

(* Backend parity: every backend reports the same ready set for the
   same descriptors.  Each case is a few socket pairs; on our end,
   random read and write interest, and a state: idle, bytes pending,
   send buffer full, or peer closed. *)
type pair_state = Idle | Pending of int | Full | Peer_closed

let pair_state_gen =
  QCheck.Gen.(
    oneof
      [
        return Idle;
        map (fun n -> Pending n) (int_range 1 4096);
        return Full;
        return Peer_closed;
      ])

let show_pair (r, w, st) =
  Printf.sprintf "{read=%b write=%b %s}" r w
    (match st with
    | Idle -> "idle"
    | Pending n -> Printf.sprintf "pending %d" n
    | Full -> "full"
    | Peer_closed -> "peer closed")

let parity_arb =
  QCheck.make
    ~print:(fun ps -> String.concat " " (List.map show_pair ps))
    QCheck.Gen.(list_size (int_range 1 6) (triple bool bool pair_state_gen))

let fill_send_buffer fd =
  Unix.set_nonblock fd;
  let chunk = Bytes.make 65536 'f' in
  try
    while true do
      ignore (Unix.write fd chunk 0 (Bytes.length chunk))
    done
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

let prop_backend_parity pairs =
  let made =
    List.map
      (fun (r, w, st) ->
        let ours, peer = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (match st with
        | Idle -> ()
        | Pending n -> ignore (Unix.write peer (Bytes.make n 'p') 0 n)
        | Full -> fill_send_buffer ours
        | Peer_closed -> Unix.close peer);
        (ours, peer, r, w, st))
      pairs
  in
  let ready kind =
    let b = Evio.Backend.create kind in
    List.iter
      (fun (ours, _, r, w, _) -> Evio.Backend.register b ours ~read:r ~write:w)
      made;
    let evs = wait b ~timeout_ms:0 in
    Evio.Backend.close b;
    List.sort compare
      (List.map
         (fun ev -> (Obj.magic ev.fd : int), ev.readable, ev.writable)
         evs)
  in
  let results = List.map (fun k -> (k, ready k)) (Evio.all_available ()) in
  List.iter
    (fun (ours, peer, _, _, st) ->
      Unix.close ours;
      if st <> Peer_closed then Unix.close peer)
    made;
  let show evs =
    String.concat " "
      (List.map (fun (fd, r, w) -> Printf.sprintf "%d:%b/%b" fd r w) evs)
  in
  match results with
  | [] -> true
  | (k0, first) :: rest ->
      List.iter
        (fun (k, evs) ->
          if evs <> first then
            QCheck.Test.fail_reportf "%s reports [%s], %s reports [%s]"
              (Evio.name k0) (show first) (Evio.name k) (show evs))
        rest;
      true

(* select must refuse an fd it could never wait on (>= FD_SETSIZE)
   with Backend_full — the EINVAL-from-wait alternative kills the whole
   loop.  The fd number is fabricated: select's cap check is pure
   arithmetic and never touches the kernel, and Unix.file_descr is a
   plain int on the non-Windows platforms where the cap exists. *)
let test_select_fd_cap () =
  let cap = Evio.fd_setsize () in
  if cap > 0 then begin
    let b = Evio.Backend.create Evio.Select in
    let over : Unix.file_descr = Obj.magic cap in
    (match Evio.Backend.register b over ~read:true ~write:false with
    | () -> Alcotest.fail "expected Backend_full for fd >= FD_SETSIZE"
    | exception Evio.Backend_full _ -> ());
    Alcotest.(check int) "over-cap fd not registered" 0 (Evio.Backend.fd_count b);
    let r, w = Unix.pipe () in
    Evio.Backend.register b r ~read:true ~write:false;
    Alcotest.(check int) "under-cap fd registers" 1 (Evio.Backend.fd_count b);
    Evio.Backend.close b;
    Unix.close r;
    Unix.close w
  end;
  (* poll and epoll take the same fd number without complaint. *)
  List.iter
    (fun kind ->
      if kind <> Evio.Select then begin
        let b = Evio.Backend.create kind in
        let r, w = Unix.pipe () in
        Evio.Backend.register b r ~read:true ~write:false;
        Alcotest.(check int)
          (Evio.name kind ^ " has no numeric cap check")
          1 (Evio.Backend.fd_count b);
        Evio.Backend.close b;
        Unix.close r;
        Unix.close w
      end)
    (Evio.all_available ())

(* ------------------------------------------------------------------ *)
(* Server: backend × mode parity matrix                                *)
(* ------------------------------------------------------------------ *)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let make_docroot () =
  let dir = Filename.temp_file "flash_evio" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  write_file (Filename.concat dir "hello.txt") "hello evio world";
  write_file (Filename.concat dir "big.bin") (String.make 100_000 'E');
  dir

let with_server config f =
  let server = Server.start_background config in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () -> f server (Server.port server))

let rec await ?(tries = 100) server pred =
  let stats = Server.stats server in
  if pred stats || tries = 0 then stats
  else begin
    Thread.delay 0.05;
    await ~tries:(tries - 1) server pred
  end

(* Every available backend must serve byte-identical responses in all
   four architectures, including keep-alive reuse. *)
let test_parity_matrix () =
  let docroot = make_docroot () in
  let modes = [ Server.Amped; Server.Sped; Server.Mp 2; Server.Mt 2 ] in
  let reference = ref None in
  List.iter
    (fun backend ->
      List.iter
        (fun mode ->
          let label =
            Printf.sprintf "%s/%s" (Evio.name backend)
              (match mode with
              | Server.Amped -> "amped"
              | Server.Sped -> "sped"
              | Server.Mp _ -> "mp"
              | Server.Mt _ -> "mt"
              | Server.Sharded _ -> "sharded")
          in
          let config =
            {
              (Server.default_config ~docroot) with
              Server.mode;
              event_backend = backend;
            }
          in
          with_server config (fun server port ->
              let session = Client.Session.connect ~host:"127.0.0.1" ~port () in
              Fun.protect
                ~finally:(fun () -> Client.Session.close session)
                (fun () ->
                  let r1 = Client.Session.request session "/hello.txt" in
                  let r2 = Client.Session.request session "/big.bin" in
                  let r3 = Client.get ~host:"127.0.0.1" ~port "/missing" in
                  let got =
                    ( r1.Client.status,
                      r1.Client.body,
                      r2.Client.status,
                      r2.Client.body,
                      r3.Client.status )
                  in
                  (match !reference with
                  | None ->
                      Alcotest.(check int) (label ^ ": 200") 200 r1.Client.status;
                      Alcotest.(check string)
                        (label ^ ": body")
                        "hello evio world" r1.Client.body;
                      Alcotest.(check int)
                        (label ^ ": big 200")
                        200 r2.Client.status;
                      Alcotest.(check int)
                        (label ^ ": missing 404")
                        404 r3.Client.status;
                      reference := Some got
                  | Some expected ->
                      Alcotest.(check bool)
                        (label ^ ": byte-identical with reference")
                        true (got = expected));
                  ignore server)))
        modes)
    (Evio.all_available ())

(* The status endpoint must name the backend actually configured. *)
let test_status_reports_backend () =
  let docroot = make_docroot () in
  List.iter
    (fun backend ->
      let config =
        { (Server.default_config ~docroot) with Server.event_backend = backend }
      in
      with_server config (fun _server port ->
          let r = Client.get ~host:"127.0.0.1" ~port "/server-status?json" in
          Alcotest.(check string)
            (Evio.name backend ^ " named in status JSON")
            (Evio.name backend)
            (Test_status.config
               (Test_status.parse_json r.Client.body)
               "backend");
          let rt = Client.get ~host:"127.0.0.1" ~port "/server-status" in
          Alcotest.(check bool)
            (Evio.name backend ^ " named in status text")
            true
            (Helpers.contains ~affix:(Evio.name backend) rt.Client.body)))
    (Evio.all_available ())

(* ------------------------------------------------------------------ *)
(* Server: wheel-driven idle reaping                                   *)
(* ------------------------------------------------------------------ *)

(* Every mode reaps through the same wheel timer: an MP child or MT
   worker holding an idle keep-alive connection closes it on time. *)
let test_idle_reaped_by_wheel mode () =
  let docroot = make_docroot () in
  List.iter
    (fun backend ->
      let config =
        {
          (Server.default_config ~docroot) with
          Server.mode;
          idle_timeout = 0.2;
          event_backend = backend;
        }
      in
      with_server config (fun server port ->
          let session = Client.Session.connect ~host:"127.0.0.1" ~port () in
          Fun.protect
            ~finally:(fun () -> Client.Session.close session)
            (fun () ->
              let r = Client.Session.request session "/hello.txt" in
              Alcotest.(check int) "served" 200 r.Client.status;
              (* The loop must notice the idle connection on its own —
                 no requests arrive to wake it. *)
              let s =
                await server (fun s -> s.Server.active_connections = 0)
              in
              Alcotest.(check int)
                (Evio.name backend ^ ": idle connection reaped")
                0 s.Server.active_connections;
              Alcotest.(check bool)
                (Evio.name backend ^ ": reaping fired a wheel timer")
                true
                (s.Server.timer_fires >= 1))))
    (Evio.all_available ())

(* ------------------------------------------------------------------ *)
(* Server: EMFILE shedding                                             *)
(* ------------------------------------------------------------------ *)

(* Inject accept failures via the config seam: the first [n] accept
   attempts behave as EMFILE.  The server must count them, pause the
   listener rather than spin, and serve normally once the fault
   clears. *)
let test_emfile_shedding mode () =
  let docroot = make_docroot () in
  let faults = ref 3 in
  let m = Mutex.create () in
  let fault () =
    Mutex.lock m;
    let inject = !faults > 0 in
    if inject then decr faults;
    Mutex.unlock m;
    inject
  in
  let config =
    {
      (Server.default_config ~docroot) with
      Server.mode;
      accept_fault = Some fault;
    }
  in
  with_server config (fun server port ->
      (* First connection hits the injected EMFILE: the listener pauses,
         then the backoff timer re-arms it and the pending connection
         (still queued in the kernel) is accepted and served. *)
      let r = Client.get ~host:"127.0.0.1" ~port "/hello.txt" in
      Alcotest.(check int) "served after shedding" 200 r.Client.status;
      Alcotest.(check string) "body intact" "hello evio world" r.Client.body;
      let s = await server (fun s -> s.Server.accept_emfile >= 1) in
      Alcotest.(check bool) "shed accepts counted" true
        (s.Server.accept_emfile >= 1);
      (* Once the fault is gone, service is normal. *)
      let r2 = Client.get ~host:"127.0.0.1" ~port "/hello.txt" in
      Alcotest.(check int) "healthy afterwards" 200 r2.Client.status)

let test_emfile_status_surfaced () =
  let docroot = make_docroot () in
  let faults = ref 2 in
  let fault () =
    let inject = !faults > 0 in
    if inject then decr faults;
    inject
  in
  let config =
    { (Server.default_config ~docroot) with Server.accept_fault = Some fault }
  in
  with_server config (fun server port ->
      let r = Client.get ~host:"127.0.0.1" ~port "/hello.txt" in
      Alcotest.(check int) "served" 200 r.Client.status;
      ignore (await server (fun s -> s.Server.accept_emfile >= 1));
      let st = Client.get ~host:"127.0.0.1" ~port "/server-status?json" in
      Alcotest.(check bool) "accept_emfile in status JSON" true
        (Test_status.to_int
           (Test_status.row
              (Test_status.parse_json st.Client.body)
              "flash_accept_emfile_total")
        >= 1))

(* [stop] writes one byte to the wake pipe and every MT worker watches
   it.  An idle worker has no timer, so only that byte ends its wait: a
   loop that consumed it would strand the others, and [stop] (which
   joins them) would never return.  Each backend gets 5 s. *)
let test_stop_rouses_idle_workers () =
  let docroot = make_docroot () in
  List.iter
    (fun backend ->
      let config =
        {
          (Server.default_config ~docroot) with
          Server.mode = Server.Mt 4;
          event_backend = backend;
        }
      in
      let server = Server.start_background config in
      let port = Server.port server in
      let r = Client.get ~host:"127.0.0.1" ~port "/hello.txt" in
      Alcotest.(check int) (Evio.name backend ^ ": served") 200 r.Client.status;
      (* Let the worker that served close the connection and go idle. *)
      Thread.delay 0.1;
      let stopped = Atomic.make false in
      ignore
        (Thread.create
           (fun () ->
             Server.stop server;
             Atomic.set stopped true)
           ());
      let deadline = Unix.gettimeofday () +. 5. in
      while (not (Atomic.get stopped)) && Unix.gettimeofday () < deadline do
        Thread.delay 0.02
      done;
      Alcotest.(check bool)
        (Evio.name backend ^ ": stop returns within 5 s")
        true (Atomic.get stopped))
    (Evio.all_available ())

let suite =
  [
    Alcotest.test_case "wheel: schedule/advance basics" `Quick test_wheel_basic;
    Alcotest.test_case "wheel: cancel and reschedule" `Quick
      test_wheel_cancel_reschedule;
    Alcotest.test_case "wheel: overdue and beyond-rotation" `Quick
      test_wheel_overdue_and_far;
    Alcotest.test_case "select: FD_SETSIZE cap raises Backend_full" `Quick
      test_select_fd_cap;
    Helpers.qcheck_case ~count:150 ~name:"wheel: no early fires, all fire"
      wheel_schedule_arb prop_wheel_no_early_all_eventually;
    Helpers.qcheck_case ~count:150 ~name:"wheel: batches in deadline order"
      wheel_schedule_arb prop_wheel_fire_order;
    Helpers.qcheck_case ~count:300 ~name:"wheel: next_deadline within bounds"
      wheel_ops_arb prop_wheel_next_deadline_bounds;
    Helpers.qcheck_case ~count:150 ~name:"wheel: cancelled never fire"
      QCheck.(list_of_size Gen.(int_range 0 40) (float_bound_inclusive 2.0))
      prop_wheel_cancelled_never_fire;
    Alcotest.test_case "backends: pipe readiness and interest" `Quick
      test_backend_pipe_readiness;
    Alcotest.test_case "backends: wait timeout" `Quick test_backend_timeout;
    Alcotest.test_case "backends: a closed fd is pruned" `Quick
      test_backend_prunes_closed;
    Alcotest.test_case "backends: a wait survives a collection" `Quick
      test_wait_survives_collection;
    Helpers.qcheck_case ~count:100 ~name:"backends: same ready set" parity_arb
      prop_backend_parity;
    Alcotest.test_case "backends: of_string" `Quick test_of_string;
    Alcotest.test_case "server: default backend is the best available"
      `Quick test_server_default;
    Alcotest.test_case "server: backend x mode parity" `Slow test_parity_matrix;
    Alcotest.test_case "server: status names backend" `Quick
      test_status_reports_backend;
    Alcotest.test_case "server: idle reaped by wheel" `Slow
      (test_idle_reaped_by_wheel Server.Amped);
    Alcotest.test_case "server: idle reaped by wheel (sped)" `Slow
      (test_idle_reaped_by_wheel Server.Sped);
    Alcotest.test_case "server: idle reaped by wheel (mp)" `Slow
      (test_idle_reaped_by_wheel (Server.Mp 2));
    Alcotest.test_case "server: idle reaped by wheel (mt)" `Slow
      (test_idle_reaped_by_wheel (Server.Mt 2));
    Alcotest.test_case "server: EMFILE shedding (amped)" `Quick
      (test_emfile_shedding Server.Amped);
    Alcotest.test_case "server: EMFILE shedding (mt)" `Quick
      (test_emfile_shedding (Server.Mt 2));
    Alcotest.test_case "server: EMFILE surfaces in status" `Quick
      test_emfile_status_surfaced;
    Alcotest.test_case "server: stop rouses every idle worker (mt)" `Quick
      test_stop_rouses_idle_workers;
  ]
