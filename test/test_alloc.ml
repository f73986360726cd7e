(* What one keep-alive cache hit costs the server in minor-heap words.

   The server runs its loop on a thread of this domain; the client runs
   on a domain of its own, so [Gc.minor_words] read here counts the
   server's allocation and none of the client's.  A warm-up pass fills
   the cache and brings every per-connection buffer to its working size;
   the measured pass then serves only hits.  Domains are spawned here,
   so this suite runs after every test that forks. *)

module Server = Flash_live.Server

let request =
  "GET /page.html HTTP/1.1\r\nHost: 127.0.0.1\r\nUser-Agent: alloc-probe\r\n\
   Accept: */*\r\n\r\n"

let body = String.make 4096 'p'

(* Send [n] requests one at a time on one connection, reading each
   response whole (headers, then [String.length body] bytes). *)
let client port n =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  let buf = Bytes.create 65536 in
  let rec read_response have =
    let n = Unix.read fd buf have (Bytes.length buf - have) in
    if n = 0 then failwith "connection closed";
    let have = have + n in
    let head_end =
      let rec find i =
        if i + 4 > have then None
        else if Bytes.sub_string buf i 4 = "\r\n\r\n" then Some (i + 4)
        else find (i + 1)
      in
      find 0
    in
    match head_end with
    | Some h when have >= h + String.length body -> ()
    | _ -> read_response have
  in
  for _ = 1 to n do
    ignore (Unix.write_substring fd request 0 (String.length request));
    read_response 0
  done;
  Unix.close fd

let words_per_hit ~trace =
  let docroot = Filename.temp_file "flash_alloc" "" in
  Sys.remove docroot;
  Unix.mkdir docroot 0o755;
  Test_live.write_file (Filename.concat docroot "page.html") body;
  let config =
    { (Server.default_config ~docroot) with Server.port = 0; trace }
  in
  let server = Server.start_background config in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let port = Server.port server in
      Domain.join (Domain.spawn (fun () -> client port 500));
      let n = 4000 in
      let before = Gc.minor_words () in
      Domain.join (Domain.spawn (fun () -> client port n));
      (Gc.minor_words () -. before) /. float_of_int n)

let check ~trace ~bound () =
  let words = words_per_hit ~trace in
  Printf.printf "minor words per hit (trace %b): %.1f\n%!" trace words;
  if words > bound then
    Alcotest.failf "%.1f minor words per hit with trace %b, bound %.0f" words
      trace bound

let suite =
  [
    Alcotest.test_case "minor words per hit, tracing off" `Slow
      (check ~trace:false ~bound:200.);
    Alcotest.test_case "minor words per hit, tracing on" `Slow
      (check ~trace:true ~bound:300.);
  ]
