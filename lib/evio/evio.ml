module Timer_wheel = Timer_wheel

external poll_available : unit -> bool = "flash_evio_poll_available"
external epoll_available : unit -> bool = "flash_evio_epoll_available"
external fd_setsize : unit -> int = "flash_evio_fd_setsize"

(* Unix.file_descr is a plain int on every non-Windows platform; only
   consulted when [fd_setsize () > 0], which rules Windows out. *)
external int_of_fd : Unix.file_descr -> int = "%identity"

exception Backend_full of string

external raw_poll :
  Unix.file_descr array -> int array -> int array -> int -> int -> int
  = "flash_evio_poll"

external raw_select :
  Unix.file_descr array -> int array -> int array -> int -> int -> int
  = "flash_evio_select"

external epoll_create : unit -> Unix.file_descr = "flash_evio_epoll_create"

external epoll_ctl : Unix.file_descr -> int -> Unix.file_descr -> int -> unit
  = "flash_evio_epoll_ctl"

external raw_epoll_wait :
  Unix.file_descr -> Unix.file_descr array -> int array -> int -> int -> int
  = "flash_evio_epoll_wait"

external set_reuseport : Unix.file_descr -> unit = "flash_evio_set_reuseport"

type kind = Select | Poll | Epoll

let name = function Select -> "select" | Poll -> "poll" | Epoll -> "epoll"

(* select and poll are built from the same stubs, and exist together. *)
let available = function
  | Select | Poll -> poll_available ()
  | Epoll -> epoll_available ()

let best_available () =
  if available Epoll then Epoll else if available Poll then Poll else Select

let all_available () = List.filter available [ Select; Poll; Epoll ]

let valid_names = "select|poll|epoll|auto"

let of_string = function
  | "select" -> Ok Select
  | "poll" -> Ok Poll
  | "epoll" -> Ok Epoll
  | "auto" -> Ok (best_available ())
  | s ->
      Error
        (Printf.sprintf "unknown event backend %S (expected %s)" s valid_names)

(* Result bits shared with the stubs. *)
let bit_read = 1
let bit_write = 2
let bit_invalid = 4

module Backend = struct
  type interest = {
    mutable want_read : bool;
    mutable want_write : bool;
    (* epoll: whether the fd currently lives in the kernel interest set
       (fds with no interest are deleted, not parked with a zero mask,
       so a hung-up peer cannot spin the loop with HUP events nobody
       will consume). *)
    mutable in_kernel : bool;
  }

  type t = {
    kind : kind;
    tbl : (Unix.file_descr, interest) Hashtbl.t;
    (* select and poll: the interest arrays both waits read, rebuilt
       lazily, only after a registration change; an unchanged interest
       set re-waits on the cached arrays. *)
    mutable dirty : bool;
    mutable pfds : Unix.file_descr array;
    mutable pevents : int array;
    mutable prevents : int array;
    mutable pn : int;
    (* The last wait's ready fds and their result bits, in [0, n) for
       the n it returned: filled from [prevents] by select and poll, and
       by the kernel itself under epoll. *)
    mutable rfds : Unix.file_descr array;
    mutable rbits : int array;
    epfd : Unix.file_descr option;  (* epoll: the kernel-side instance *)
    mutable closed : bool;
  }

  let epoll_batch = 256

  let create kind =
    if not (available kind) then
      invalid_arg
        (Printf.sprintf "Evio.Backend.create: %s not available on this system"
           (name kind));
    (* select and poll size their result arrays with the interest set. *)
    let batch = match kind with Epoll -> epoll_batch | Select | Poll -> 0 in
    {
      kind;
      tbl = Hashtbl.create 64;
      dirty = true;
      pfds = [||];
      pevents = [||];
      prevents = [||];
      pn = 0;
      rfds = Array.make batch Unix.stdin;
      rbits = Array.make batch 0;
      epfd = (match kind with Epoll -> Some (epoll_create ()) | _ -> None);
      closed = false;
    }

  let kind t = t.kind
  let fd_count t = Hashtbl.length t.tbl

  let mask_of i =
    (if i.want_read then bit_read else 0)
    lor if i.want_write then bit_write else 0

  (* Push an interest change to the kernel; the caller has already
     established that something changed. *)
  let epoll_sync t fd i =
    match t.epfd with
    | None -> ()
    | Some epfd -> (
        match (i.in_kernel, mask_of i) with
        | false, 0 -> ()
        | false, m ->
            epoll_ctl epfd 0 fd m;
            i.in_kernel <- true
        | true, 0 ->
            (try epoll_ctl epfd 2 fd 0 with Unix.Unix_error _ -> ());
            i.in_kernel <- false
        | true, m -> epoll_ctl epfd 1 fd m)

  let changed t fd i =
    match t.kind with
    | Select | Poll -> t.dirty <- true
    | Epoll -> epoll_sync t fd i

  let modify t fd ~read ~write =
    match Hashtbl.find_opt t.tbl fd with
    | Some i when i.want_read = read && i.want_write = write ->
        () (* interest diffing: unchanged fds cost nothing *)
    | Some i ->
        i.want_read <- read;
        i.want_write <- write;
        changed t fd i
    | None ->
        (* select can only wait on fd numbers below FD_SETSIZE; refuse
           the registration here (where the caller can shed one
           connection) rather than letting the next wait fail with
           EINVAL and take the whole loop down. *)
        (if t.kind = Select then
           let cap = fd_setsize () in
           if cap > 0 && int_of_fd fd >= cap then
             raise
               (Backend_full
                  (Printf.sprintf "select backend: fd %d >= FD_SETSIZE %d"
                     (int_of_fd fd) cap)));
        let i = { want_read = read; want_write = write; in_kernel = false } in
        Hashtbl.replace t.tbl fd i;
        changed t fd i

  let register = modify

  let deregister t fd =
    match Hashtbl.find_opt t.tbl fd with
    | None -> ()
    | Some i -> (
        Hashtbl.remove t.tbl fd;
        match t.kind with
        | Select | Poll -> t.dirty <- true
        | Epoll ->
            if i.in_kernel then (
              match t.epfd with
              | Some epfd -> (
                  (* The fd may already be closed (the kernel then
                     dropped it from the set itself). *)
                  try epoll_ctl epfd 2 fd 0 with Unix.Unix_error _ -> ())
              | None -> ()))

  let rebuild t =
    let n = ref 0 in
    Hashtbl.iter
      (fun _ i -> if i.want_read || i.want_write then incr n)
      t.tbl;
    if Array.length t.pfds < !n then begin
      t.pfds <- Array.make !n Unix.stdin;
      t.pevents <- Array.make !n 0;
      t.prevents <- Array.make !n 0;
      t.rfds <- Array.make !n Unix.stdin;
      t.rbits <- Array.make !n 0
    end;
    let j = ref 0 in
    Hashtbl.iter
      (fun fd i ->
        if i.want_read || i.want_write then begin
          t.pfds.(!j) <- fd;
          t.pevents.(!j) <- mask_of i;
          incr j
        end)
      t.tbl;
    t.pn <- !j;
    t.dirty <- false

  (* select and poll: one wait over the cached arrays, its ready fds
     copied to the front of [rfds].  A descriptor the kernel reports
     invalid (poll's POLLNVAL; for select, an EBADF wait that found it
     closed) was closed before it was deregistered: its registration is
     dropped, at the cost of one wasted wakeup. *)
  let wait_arrays t ~timeout_ms =
    if t.dirty then rebuild t;
    match
      match t.kind with
      | Select -> raw_select t.pfds t.pevents t.prevents t.pn timeout_ms
      | Poll | Epoll -> raw_poll t.pfds t.pevents t.prevents t.pn timeout_ms
    with
    | exception Unix.Unix_error _ -> 0
    | nready when nready <= 0 -> 0
    | _ ->
        let n = ref 0 in
        for i = 0 to t.pn - 1 do
          let bits = t.prevents.(i) in
          if bits land bit_invalid <> 0 then deregister t t.pfds.(i)
          else if bits <> 0 then begin
            t.rfds.(!n) <- t.pfds.(i);
            t.rbits.(!n) <- bits;
            incr n
          end
        done;
        !n

  (* epoll fills [rfds] and [rbits] itself; an event with no bit this
     backend reports is squeezed out. *)
  let wait_epoll t ~timeout_ms =
    match t.epfd with
    | None -> 0
    | Some epfd -> (
        match raw_epoll_wait epfd t.rfds t.rbits epoll_batch timeout_ms with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> 0
        | n ->
            let k = ref 0 in
            for i = 0 to n - 1 do
              let bits = t.rbits.(i) in
              if bits <> 0 then begin
                t.rfds.(!k) <- t.rfds.(i);
                t.rbits.(!k) <- bits;
                incr k
              end
            done;
            !k)

  let wait t ~timeout_ms =
    match t.kind with
    | Select | Poll -> wait_arrays t ~timeout_ms
    | Epoll -> wait_epoll t ~timeout_ms

  let ready_fd t i = t.rfds.(i)
  let readable t i = t.rbits.(i) land bit_read <> 0
  let writable t i = t.rbits.(i) land bit_write <> 0

  let close t =
    if not t.closed then begin
      t.closed <- true;
      match t.epfd with
      | Some epfd -> ( try Unix.close epfd with Unix.Unix_error _ -> ())
      | None -> ()
    end
end
