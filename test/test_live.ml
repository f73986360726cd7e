(* End-to-end tests of the live Unix server over real loopback sockets. *)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let make_docroot () =
  let dir = Filename.temp_file "flash_docroot" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Unix.mkdir (Filename.concat dir "sub") 0o755;
  Unix.mkdir (Filename.concat dir "cgi-bin") 0o755;
  write_file (Filename.concat dir "index.html") "<html>home</html>";
  write_file (Filename.concat dir "hello.txt") "hello live world";
  write_file (Filename.concat dir "sub/index.html") "<html>sub</html>";
  write_file (Filename.concat dir "big.bin") (String.make 300_000 'B');
  let cgi = Filename.concat dir "cgi-bin/echo.sh" in
  write_file cgi "#!/bin/sh\necho \"query=$QUERY_STRING method=$REQUEST_METHOD\"\n";
  Unix.chmod cgi 0o755;
  dir

let with_server ?(mode = Flash_live.Server.Amped) ?(docroot = make_docroot ())
    ?event_backend f =
  let config =
    { (Flash_live.Server.default_config ~docroot) with Flash_live.Server.mode }
  in
  let config =
    match event_backend with
    | Some event_backend -> { config with Flash_live.Server.event_backend }
    | None -> config
  in
  let server = Flash_live.Server.start_background config in
  Fun.protect
    ~finally:(fun () -> Flash_live.Server.stop server)
    (fun () -> f server (Flash_live.Server.port server))

let get port path = Flash_live.Client.get ~host:"127.0.0.1" ~port path

let test_basic_get mode () =
  with_server ~mode (fun server port ->
      let r = get port "/hello.txt" in
      Alcotest.(check int) "status" 200 r.Flash_live.Client.status;
      Alcotest.(check string) "body" "hello live world" r.Flash_live.Client.body;
      Alcotest.(check (option string)) "content type" (Some "text/plain")
        (List.assoc_opt "content-type" r.Flash_live.Client.headers);
      ignore server)

let test_index () =
  with_server (fun _ port ->
      let r = get port "/" in
      Alcotest.(check int) "status" 200 r.Flash_live.Client.status;
      Alcotest.(check string) "body" "<html>home</html>" r.Flash_live.Client.body;
      let r2 = get port "/sub/" in
      Alcotest.(check string) "subdir index" "<html>sub</html>"
        r2.Flash_live.Client.body)

let test_not_found () =
  with_server (fun _ port ->
      let r = get port "/nope.html" in
      Alcotest.(check int) "404" 404 r.Flash_live.Client.status)

let test_forbidden_escape () =
  with_server (fun _ port ->
      let r = get port "/../../etc/passwd" in
      Alcotest.(check int) "403" 403 r.Flash_live.Client.status)

let test_head () =
  with_server (fun _ port ->
      let r = Flash_live.Client.get ~meth:"HEAD" ~host:"127.0.0.1" ~port "/hello.txt" in
      Alcotest.(check int) "status" 200 r.Flash_live.Client.status;
      Alcotest.(check string) "no body" "" r.Flash_live.Client.body;
      Alcotest.(check (option string)) "length advertised" (Some "16")
        (List.assoc_opt "content-length" r.Flash_live.Client.headers))

let test_large_file_served () =
  let docroot = make_docroot () in
  let config =
    {
      (Flash_live.Server.default_config ~docroot) with
      (* Cache only tiny files: big.bin is served from a mapping made
         for the request. *)
      Flash_live.Server.max_cached_file = 1024;
    }
  in
  let server = Flash_live.Server.start_background config in
  Fun.protect
    ~finally:(fun () -> Flash_live.Server.stop server)
    (fun () ->
      let r = get (Flash_live.Server.port server) "/big.bin" in
      Alcotest.(check int) "status" 200 r.Flash_live.Client.status;
      Alcotest.(check int) "full body" 300_000
        (String.length r.Flash_live.Client.body))

let test_keep_alive_session () =
  with_server (fun server port ->
      let session = Flash_live.Client.Session.connect ~host:"127.0.0.1" ~port () in
      Fun.protect
        ~finally:(fun () -> Flash_live.Client.Session.close session)
        (fun () ->
          let r1 = Flash_live.Client.Session.request session "/hello.txt" in
          let r2 = Flash_live.Client.Session.request session "/index.html" in
          let r3 = Flash_live.Client.Session.request session "/hello.txt" in
          Alcotest.(check (list int)) "three 200s" [ 200; 200; 200 ]
            [ r1.Flash_live.Client.status; r2.Flash_live.Client.status;
              r3.Flash_live.Client.status ];
          Alcotest.(check string) "bodies correct" "hello live world"
            r3.Flash_live.Client.body);
      let stats = Flash_live.Server.stats server in
      Alcotest.(check int) "one connection" 1
        stats.Flash_live.Server.connections;
      Alcotest.(check int) "three requests" 3 stats.Flash_live.Server.requests)

let test_cache_hits () =
  with_server (fun server port ->
      ignore (get port "/hello.txt");
      ignore (get port "/hello.txt");
      ignore (get port "/hello.txt");
      let stats = Flash_live.Server.stats server in
      Alcotest.(check bool) "cache hits recorded" true
        (stats.Flash_live.Server.cache_hits >= 2))

let test_amped_uses_helpers () =
  with_server ~mode:Flash_live.Server.Amped (fun server port ->
      ignore (get port "/hello.txt");
      let stats = Flash_live.Server.stats server in
      Alcotest.(check bool) "helper used for cold file" true
        (stats.Flash_live.Server.helper_jobs >= 1))

let test_sped_no_helpers () =
  with_server ~mode:Flash_live.Server.Sped (fun server port ->
      ignore (get port "/hello.txt");
      let stats = Flash_live.Server.stats server in
      Alcotest.(check int) "no helper jobs" 0 stats.Flash_live.Server.helper_jobs)

let test_cgi () =
  with_server (fun _ port ->
      let r = get port "/cgi-bin/echo.sh?x=42" in
      Alcotest.(check int) "status" 200 r.Flash_live.Client.status;
      Alcotest.(check string) "cgi output" "query=x=42 method=GET\n"
        r.Flash_live.Client.body)

let test_cgi_missing () =
  with_server (fun _ port ->
      let r = get port "/cgi-bin/ghost.sh" in
      Alcotest.(check int) "404" 404 r.Flash_live.Client.status)

let write_script docroot name text =
  let path = Filename.concat docroot ("cgi-bin/" ^ name) in
  write_file path text;
  Unix.chmod path 0o755

(* Read [fd] until the peer closes it or the bytes read so far satisfy
   [until].  No read waits past [deadline] (an absolute time): a server
   that died or stalls fails the test, naming [what], rather than
   hanging it. *)
let read_by ~what ~deadline ?(until = fun _ -> false) fd =
  let acc = Buffer.create 1024 and buf = Bytes.create 4096 in
  let rec go () =
    if not (until (Buffer.contents acc)) then
      match
        let left = deadline -. Unix.gettimeofday () in
        match Unix.select [ fd ] [] [] (Float.max 0. left) with
        | [], _, _ -> Alcotest.failf "%s: no answer by its deadline" what
        | _ -> Unix.read fd buf 0 (Bytes.length buf)
      with
      | 0 -> ()
      | n ->
          Buffer.add_subbytes acc buf 0 n;
          go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
  in
  go ();
  Buffer.contents acc

(* The status, headers and body (everything past the head) of a
   response read to its close. *)
let parse_to_close ~what all =
  match Helpers.Raw.find_head_end all 0 with
  | Some e ->
      let status, _, headers = Helpers.Raw.parse_head (String.sub all 0 e) in
      (status, headers, String.sub all e (String.length all - e))
  | None -> Alcotest.failf "%s: no response head" what

(* One GET on a fresh connection, read to the close within 5 s. *)
let request_within_5s ~port ~close target =
  let fd = Helpers.Raw.connect ~port in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Helpers.Raw.write_request fd ~meth:"GET" ~target ~headers:[] ~close;
      parse_to_close ~what:target
        (read_by ~what:target ~deadline:(Unix.gettimeofday () +. 5.) fd))

(* A script the kernel cannot start (text with no #! line, or a #!
   naming a missing interpreter) is answered 500 with a close, and the
   server keeps serving: three fresh connections each get a 200.  Where
   the whole server is this process (AMPED, SPED), it holds as many
   descriptors afterwards as before.  Each answer must be complete
   within 5 s, so a server that died fails the test rather than hanging
   it.  Exposed with the mode as a parameter, since Sharded must run
   from test_sharded.ml, as are the CGI tests below. *)
let test_cgi_unstartable mode () =
  let docroot = make_docroot () in
  write_script docroot "bad" "echo no interpreter line\n";
  write_script docroot "nointerp" "#!/nonexistent/interp\necho unreachable\n";
  with_server ~mode ~docroot (fun _ port ->
      let fds = Helpers.settled Helpers.open_fds in
      List.iter
        (fun script ->
          let status, headers, _ =
            request_within_5s ~port ~close:false ("/cgi-bin/" ^ script)
          in
          Alcotest.(check int) (script ^ ": 500") 500 status;
          Alcotest.(check (option string))
            (script ^ ": connection") (Some "close")
            (List.assoc_opt "connection" headers))
        [ "bad"; "nointerp" ];
      for i = 1 to 3 do
        let status, _, _ = request_within_5s ~port ~close:true "/hello.txt" in
        Alcotest.(check int) (Printf.sprintf "GET %d afterwards" i) 200 status
      done;
      match mode with
      | Flash_live.Server.Amped | Flash_live.Server.Sped ->
          Alcotest.(check (option int))
            "open descriptors" fds
            (Helpers.settled Helpers.open_fds)
      | _ -> ())

(* A client that resets its connection while its CGI script still runs
   costs the server no wait: the script is killed, not waited for.
   Each script writes a line, sleeps 1 s, writes another (which finds
   its connection gone) and sleeps 4 s more.  Two such connections, so
   both workers of MP 2 and MT 2 hold one, and a shard of sharded 2
   does.  1.5 s after the resets, sixteen fresh connections each ask
   for a static file, all at once: every answer must be complete 0.5 s
   later.  A server that waited for its scripts to exit answered after
   3.5 s (on sharded 2, each connection has an even chance of meeting
   the shard that waits). *)
let test_cgi_reset_no_stall mode () =
  let docroot = make_docroot () in
  write_script docroot "slow.sh"
    "#!/bin/sh\necho a\nsleep 1\necho b\nsleep 4\necho c\n";
  with_server ~mode ~docroot (fun _ port ->
      let scripts =
        List.init 2 (fun i ->
            let fd = Helpers.Raw.connect ~port in
            Helpers.Raw.write_request fd ~meth:"GET" ~target:"/cgi-bin/slow.sh"
              ~headers:[] ~close:false;
            ignore
              (read_by
                 ~what:(Printf.sprintf "script %d's first line" i)
                 ~deadline:(Unix.gettimeofday () +. 5.)
                 ~until:(fun got -> Helpers.contains ~affix:"\r\n\r\na\n" got)
                 fd);
            fd)
      in
      List.iter
        (fun fd ->
          Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0);
          Unix.close fd)
        scripts;
      Unix.sleepf 1.5;
      let fds =
        List.init 16 (fun _ ->
            let fd = Helpers.Raw.connect ~port in
            Helpers.Raw.write_request fd ~meth:"GET" ~target:"/hello.txt"
              ~headers:[] ~close:true;
            fd)
      in
      let deadline = Unix.gettimeofday () +. 0.5 in
      List.iteri
        (fun i fd ->
          let what = Printf.sprintf "static GET %d" i in
          let status, _, body =
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () -> parse_to_close ~what (read_by ~what ~deadline fd))
          in
          Alcotest.(check int) (what ^ ": status") 200 status;
          Alcotest.(check string) (what ^ ": body") "hello live world" body)
        fds)

(* What each descriptor of this process refers to, as /proc names it
   ("socket:[inode]", "pipe:[inode]", a path). *)
let fd_targets () =
  List.filter_map
    (fun n ->
      try Some (Unix.readlink (Filename.concat "/proc/self/fd" n))
      with Unix.Unix_error _ -> None)
    (Array.to_list (Sys.readdir "/proc/self/fd"))

(* A CGI script holds no descriptor of the server's but the three it is
   given.  An idle keep-alive connection is open beside the script's
   own; the script lists its descriptors from /proc.  Its stdin is
   /dev/null and its stdout its pipe; its stderr is the server's own,
   whatever that is.  Every other descriptor must be neither a socket,
   a pipe nor an anonymous inode (an epoll instance): the listen
   socket, the client sockets, the wake and helper pipes, the epoll
   instance and the script's own pipe's read end all close on exec,
   under every available event backend.  The server runs in this
   test's process, so what the process held before the server started
   (the test runner's pipes) is not the server's and is left out. *)
let test_cgi_inherits_nothing mode () =
  let kind target =
    List.find_opt
      (fun prefix -> String.starts_with ~prefix target)
      [ "socket:"; "pipe:"; "anon_inode:" ]
  in
  (* The script's descriptors, from [ls -l] lines "... <fd> -> <target>". *)
  let script_fds ~port =
    let status, _, body = request_within_5s ~port ~close:true "/cgi-bin/fds.sh" in
    Alcotest.(check int) "script: 200" 200 status;
    List.filter_map
      (fun line ->
        match List.rev (String.split_on_char ' ' line) with
        | target :: "->" :: fd :: _ -> Some (int_of_string fd, target)
        | _ -> None)
      (String.split_on_char '\n' body)
  in
  if Sys.file_exists "/proc/self/fd" then begin
    let docroot = make_docroot () in
    write_script docroot "fds.sh" "#!/bin/sh\nls -l /proc/$$/fd\n";
    let before = fd_targets () in
    let inherited (fd, target) =
      fd > 2 && kind target <> None && not (List.mem target before)
    in
    List.iter
      (fun event_backend ->
        let backend = Evio.name event_backend in
        with_server ~mode ~docroot ~event_backend (fun _ port ->
            let idle = Helpers.Raw.open_session ~port in
            Fun.protect
              ~finally:(fun () -> Helpers.Raw.close_session idle)
              (fun () ->
                let r = Helpers.Raw.session_request idle "/hello.txt" in
                Alcotest.(check int) (backend ^ ": idle connection's GET") 200
                  r.Helpers.Raw.status;
                let fds = script_fds ~port in
                Alcotest.(check (option string))
                  (backend ^ ": stdin") (Some "/dev/null")
                  (List.assoc_opt 0 fds);
                Alcotest.(check (option string))
                  (backend ^ ": stdout is a pipe") (Some "pipe:")
                  (Option.bind (List.assoc_opt 1 fds) kind);
                Alcotest.(check (list string))
                  (backend ^ ": inherited sockets and pipes") []
                  (List.map
                     (fun (fd, target) -> Printf.sprintf "%d -> %s" fd target)
                     (List.filter inherited fds)))))
      (Evio.all_available ())
  end

(* What /proc says of process [pid]: its command name, its state
   letter and its parent's pid; [None] once the process is gone (reaped)
   or where there is no /proc. *)
let proc_stat pid =
  match
    In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid)
      In_channel.input_all
  with
  | exception Sys_error _ -> None
  | line -> (
      (* "pid (comm) state ppid ...": the name may hold spaces. *)
      let lp = String.index line '(' and rp = String.rindex line ')' in
      let rest = String.sub line (rp + 2) (String.length line - rp - 2) in
      match String.split_on_char ' ' rest with
      | state :: ppid :: _ ->
          Some (String.sub line (lp + 1) (rp - lp - 1), state.[0], int_of_string ppid)
      | _ -> None)

let proc_state pid = Option.map (fun (_, state, _) -> state) (proc_stat pid)

(* A script's response ends its script: one whose output has ended is
   reaped with it, even while it runs on.  The script prints its pid,
   closes its output and sleeps 1 s.  Three requests each read their
   answer to the close; 1.5 s later, once a script the server left
   running would have exited, none of the three pids may still exist,
   not even as a zombie.  A server that asked only once, without
   waiting, at the end of the output left all three defunct. *)
let test_cgi_reaped mode () =
  if Sys.file_exists "/proc/self/stat" then begin
    let docroot = make_docroot () in
    write_script docroot "closes.sh" "#!/bin/sh\necho $$\nexec >&-\nsleep 1\n";
    with_server ~mode ~docroot (fun _ port ->
        let pids =
          List.init 3 (fun i ->
              let status, _, body =
                request_within_5s ~port ~close:true "/cgi-bin/closes.sh"
              in
              Alcotest.(check int) (Printf.sprintf "request %d: 200" i) 200 status;
              int_of_string (String.trim body))
        in
        Unix.sleepf 1.5;
        Alcotest.(check (list string))
          "scripts left behind" []
          (List.filter_map
             (fun pid ->
               Option.map
                 (fun state -> Printf.sprintf "%d (%c)" pid state)
                 (proc_state pid))
             pids))
  end

(* A script's response ends everything the script started: it runs as
   the leader of a process group, and the group is killed.  The script
   starts [sleep 10] in the background, prints that job's pid, then
   writes another line after 1 s, which finds its connection reset.
   Within 4 s the background job must be gone or dead (a zombie of
   whatever adopted it); a server that killed only the script's own
   process left it sleeping. *)
let test_cgi_group_killed mode () =
  if Sys.file_exists "/proc/self/stat" then begin
    let docroot = make_docroot () in
    write_script docroot "forks.sh"
      "#!/bin/sh\nsleep 10 &\necho $!\nsleep 1\necho b\nsleep 4\n";
    with_server ~mode ~docroot (fun _ port ->
        let fd = Helpers.Raw.connect ~port in
        Helpers.Raw.write_request fd ~meth:"GET" ~target:"/cgi-bin/forks.sh"
          ~headers:[] ~close:false;
        let got =
          read_by ~what:"the background job's pid"
            ~deadline:(Unix.gettimeofday () +. 5.)
            ~until:(fun got ->
              match Helpers.Raw.find_head_end got 0 with
              | Some e -> String.contains_from got e '\n'
              | None -> false)
            fd
        in
        Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0);
        Unix.close fd;
        let _, _, body = parse_to_close ~what:"forks.sh" got in
        let job = int_of_string (String.trim body) in
        let deadline = Unix.gettimeofday () +. 4. in
        let rec running () =
          match proc_state job with
          | None | Some 'Z' -> None
          | Some state when Unix.gettimeofday () > deadline -> Some state
          | Some _ ->
              Unix.sleepf 0.05;
              running ()
        in
        Alcotest.(check (option char))
          (Printf.sprintf "background job %d still running" job)
          None (running ()))
  end

(* The epoll instances each MP child holds, from its /proc fd list. *)
let eventpolls pid =
  let dir = Printf.sprintf "/proc/%d/fd" pid in
  Array.fold_left
    (fun n fd ->
      match Unix.readlink (Filename.concat dir fd) with
      | "anon_inode:[eventpoll]" -> n + 1
      | _ | (exception Unix.Unix_error _) -> n)
    0 (Sys.readdir dir)

(* An MP child waits on a backend of its own and closes the copy of
   the parent's it inherits: on the default backend, where that is
   epoll, each of MP 2's children holds exactly one epoll instance (a
   child that kept the parent's held two). *)
let test_mp_child_own_backend () =
  match proc_stat (Unix.getpid ()) with
  | None -> ()
  | Some (comm, _, _) ->
      with_server ~mode:(Flash_live.Server.Mp 2) (fun _ port ->
          Alcotest.(check int) "a GET" 200 (get port "/hello.txt").Flash_live.Client.status;
          let self = Unix.getpid () in
          let children =
            List.filter
              (fun pid ->
                match proc_stat pid with
                | Some (c, state, ppid) -> ppid = self && c = comm && state <> 'Z'
                | None -> false)
              (List.filter_map int_of_string_opt
                 (Array.to_list (Sys.readdir "/proc")))
          in
          Alcotest.(check int) "MP children" 2 (List.length children);
          let expected = if Evio.default = Evio.Epoll then 1 else 0 in
          List.iter
            (fun pid ->
              Alcotest.(check int)
                (Printf.sprintf "child %d's epoll instances" pid)
                expected
                (Helpers.settled (fun () -> eventpolls pid)))
            children)

let test_concurrent_clients () =
  with_server (fun server port ->
      let results = Array.make 8 0 in
      let threads =
        List.init 8 (fun i ->
            Thread.create
              (fun () ->
                for _ = 1 to 5 do
                  let r = get port "/hello.txt" in
                  if r.Flash_live.Client.status = 200 then
                    results.(i) <- results.(i) + 1
                done)
              ())
      in
      List.iter Thread.join threads;
      Alcotest.(check int) "all 40 succeeded" 40 (Array.fold_left ( + ) 0 results);
      let stats = Flash_live.Server.stats server in
      Alcotest.(check bool) "server counted them" true
        (stats.Flash_live.Server.requests >= 40))

let test_mp_mode () =
  with_server ~mode:(Flash_live.Server.Mp 2) (fun server port ->
      let r = get port "/hello.txt" in
      Alcotest.(check int) "status" 200 r.Flash_live.Client.status;
      Alcotest.(check string) "body" "hello live world" r.Flash_live.Client.body;
      (* A second connection exercises another worker. *)
      let r2 = get port "/index.html" in
      Alcotest.(check int) "second conn" 200 r2.Flash_live.Client.status;
      (* §4.2: children report per-request events over a pipe the parent
         consolidates.  The child's report races the client's read, so
         allow it a moment to arrive. *)
      let rec await_stats tries =
        let stats = Flash_live.Server.stats server in
        if stats.Flash_live.Server.requests >= 2 || tries = 0 then stats
        else begin
          Thread.delay 0.05;
          await_stats (tries - 1)
        end
      in
      let stats = await_stats 40 in
      Alcotest.(check int) "MP stats consolidated over IPC" 2
        stats.Flash_live.Server.requests)

let test_aligned_headers_on_wire () =
  (* Read the raw bytes: the response head must be 32-byte aligned. *)
  with_server (fun _ port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = "GET /hello.txt HTTP/1.0\r\n\r\n" in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Bytes.create 65536 in
      let acc = Buffer.create 256 in
      let rec drain () =
        match Unix.read fd buf 0 65536 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes acc buf 0 n;
            drain ()
      in
      drain ();
      Unix.close fd;
      let raw = Buffer.contents acc in
      let rec find_head i =
        if i + 3 >= String.length raw then Alcotest.fail "no head terminator"
        else if String.sub raw i 4 = "\r\n\r\n" then i + 4
        else find_head (i + 1)
      in
      let head_len = find_head 0 in
      Alcotest.(check int) "head length aligned" 0 (head_len mod 32))

let suite =
  [
    Alcotest.test_case "AMPED basic GET" `Quick
      (test_basic_get Flash_live.Server.Amped);
    Alcotest.test_case "SPED basic GET" `Quick
      (test_basic_get Flash_live.Server.Sped);
    Alcotest.test_case "index resolution" `Quick test_index;
    Alcotest.test_case "404" `Quick test_not_found;
    Alcotest.test_case "403 on escape" `Quick test_forbidden_escape;
    Alcotest.test_case "HEAD" `Quick test_head;
    Alcotest.test_case "large file served uncached" `Quick
      test_large_file_served;
    Alcotest.test_case "keep-alive session" `Quick test_keep_alive_session;
    Alcotest.test_case "file cache hits" `Quick test_cache_hits;
    Alcotest.test_case "AMPED helper jobs" `Quick test_amped_uses_helpers;
    Alcotest.test_case "SPED no helpers" `Quick test_sped_no_helpers;
    Alcotest.test_case "CGI" `Quick test_cgi;
    Alcotest.test_case "CGI missing script" `Quick test_cgi_missing;
    Alcotest.test_case "CGI that cannot start (AMPED)" `Quick
      (test_cgi_unstartable Flash_live.Server.Amped);
    Alcotest.test_case "CGI that cannot start (SPED)" `Quick
      (test_cgi_unstartable Flash_live.Server.Sped);
    Alcotest.test_case "CGI that cannot start (MP 2)" `Quick
      (test_cgi_unstartable (Flash_live.Server.Mp 2));
    Alcotest.test_case "CGI that cannot start (MT 2)" `Quick
      (test_cgi_unstartable (Flash_live.Server.Mt 2));
    Alcotest.test_case "CGI reset mid-script stalls nothing (AMPED)" `Quick
      (test_cgi_reset_no_stall Flash_live.Server.Amped);
    Alcotest.test_case "CGI reset mid-script stalls nothing (SPED)" `Quick
      (test_cgi_reset_no_stall Flash_live.Server.Sped);
    Alcotest.test_case "CGI reset mid-script stalls nothing (MP 2)" `Quick
      (test_cgi_reset_no_stall (Flash_live.Server.Mp 2));
    Alcotest.test_case "CGI reset mid-script stalls nothing (MT 2)" `Quick
      (test_cgi_reset_no_stall (Flash_live.Server.Mt 2));
    Alcotest.test_case "CGI inherits no descriptor (AMPED)" `Quick
      (test_cgi_inherits_nothing Flash_live.Server.Amped);
    Alcotest.test_case "CGI inherits no descriptor (SPED)" `Quick
      (test_cgi_inherits_nothing Flash_live.Server.Sped);
    Alcotest.test_case "CGI inherits no descriptor (MP 2)" `Quick
      (test_cgi_inherits_nothing (Flash_live.Server.Mp 2));
    Alcotest.test_case "CGI inherits no descriptor (MT 2)" `Quick
      (test_cgi_inherits_nothing (Flash_live.Server.Mt 2));
    Alcotest.test_case "CGI reaped when its output ends (AMPED)" `Quick
      (test_cgi_reaped Flash_live.Server.Amped);
    Alcotest.test_case "CGI reaped when its output ends (SPED)" `Quick
      (test_cgi_reaped Flash_live.Server.Sped);
    Alcotest.test_case "CGI reaped when its output ends (MP 2)" `Quick
      (test_cgi_reaped (Flash_live.Server.Mp 2));
    Alcotest.test_case "CGI reaped when its output ends (MT 2)" `Quick
      (test_cgi_reaped (Flash_live.Server.Mt 2));
    Alcotest.test_case "CGI reset kills the script's group (AMPED)" `Quick
      (test_cgi_group_killed Flash_live.Server.Amped);
    Alcotest.test_case "CGI reset kills the script's group (SPED)" `Quick
      (test_cgi_group_killed Flash_live.Server.Sped);
    Alcotest.test_case "CGI reset kills the script's group (MP 2)" `Quick
      (test_cgi_group_killed (Flash_live.Server.Mp 2));
    Alcotest.test_case "CGI reset kills the script's group (MT 2)" `Quick
      (test_cgi_group_killed (Flash_live.Server.Mt 2));
    Alcotest.test_case "concurrent clients" `Quick test_concurrent_clients;
    Alcotest.test_case "MP mode" `Quick test_mp_mode;
    Alcotest.test_case "an MP child holds one backend of its own" `Quick
      test_mp_child_own_backend;
    Alcotest.test_case "32-byte aligned heads on the wire" `Quick
      test_aligned_headers_on_wire;
    Alcotest.test_case "a failed start leaks nothing (AMPED)" `Quick
      (fun () -> Helpers.check_failed_start_leaks_nothing Flash_live.Server.Amped);
  ]
