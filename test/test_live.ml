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

let with_server ?(mode = Flash_live.Server.Amped) f =
  let docroot = make_docroot () in
  let config =
    { (Flash_live.Server.default_config ~docroot) with Flash_live.Server.mode }
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
    Alcotest.test_case "concurrent clients" `Quick test_concurrent_clients;
    Alcotest.test_case "MP mode" `Quick test_mp_mode;
    Alcotest.test_case "32-byte aligned heads on the wire" `Quick
      test_aligned_headers_on_wire;
  ]
