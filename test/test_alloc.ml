(* What one keep-alive cache hit costs the server in minor-heap words.

   The server runs its loop on a thread of this domain; the client runs
   on a domain of its own, so [Gc.minor_words] read here counts the
   server's allocation and none of the client's.  A warm-up pass fills
   the cache and brings every per-connection buffer to its working size;
   the measured pass then serves only hits.  Domains are spawned here,
   so this suite runs after every test that forks. *)

module Server = Flash_live.Server

let body = String.make 4096 'p'

(* The same request for another path. *)
let request_for path =
  "GET " ^ path
  ^ " HTTP/1.1\r\nHost: 127.0.0.1\r\nUser-Agent: alloc-probe\r\n\
     Accept: */*\r\n\r\n"

(* Send [n] requests one at a time on one connection, reading each
   response whole (headers, then [String.length body] bytes); request
   [i] asks for [paths.(i mod length)]. *)
let client ?(paths = [| "/page.html" |]) port n =
  let requests = Array.map request_for paths in
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
  for i = 0 to n - 1 do
    let request = requests.(i mod Array.length requests) in
    ignore (Unix.write_substring fd request 0 (String.length request));
    read_response 0
  done;
  Unix.close fd

(* Minor words per request over [n] requests cycling through [paths],
   after a warm-up pass, from a server on a docroot holding each path
   with [body]. *)
let words_per_request ?(paths = [| "/page.html" |]) config_of =
  let docroot = Filename.temp_file "flash_alloc" "" in
  Sys.remove docroot;
  Unix.mkdir docroot 0o755;
  Array.iter
    (fun p -> Test_live.write_file (Filename.concat docroot p) body)
    paths;
  let server = Server.start_background (config_of docroot) in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let port = Server.port server in
      Domain.join (Domain.spawn (fun () -> client ~paths port 500));
      let n = 4000 in
      let before = Gc.minor_words () in
      Domain.join (Domain.spawn (fun () -> client ~paths port n));
      (Gc.minor_words () -. before) /. float_of_int n)

let check ~what ~bound words =
  Printf.printf "minor words per %s: %.1f\n%!" what words;
  if words > bound then
    Alcotest.failf "%.1f minor words per %s, bound %.0f" words what bound

let check_hit ~trace ~bound () =
  check
    ~what:(Printf.sprintf "hit (trace %b)" trace)
    ~bound
    (words_per_request (fun docroot ->
         { (Server.default_config ~docroot) with Server.port = 0; trace }))

(* Two 4 KB files in a cache that holds one: once the warm-up has made
   both paths known, every request misses and the loop refills the
   cache inline (AMPED, the page cache warm), rendering four headers
   and reading the body into a fresh entry that evicts the other. *)
let check_refill ~bound () =
  check ~what:"inline refill" ~bound
    (words_per_request ~paths:[| "/a.html"; "/b.html" |] (fun docroot ->
         {
           (Server.default_config ~docroot) with
           Server.port = 0;
           file_cache_bytes = 6000;
         }))

let suite =
  [
    Alcotest.test_case "minor words per hit, tracing off" `Slow
      (check_hit ~trace:false ~bound:200.);
    Alcotest.test_case "minor words per hit, tracing on" `Slow
      (check_hit ~trace:true ~bound:125.);
    Alcotest.test_case "minor words per inline refill" `Slow
      (check_refill ~bound:600.);
  ]
