(* The verifier against hand-made responses: each fixture is written to
   one end of a socketpair and read back through the benchmark's client,
   exactly as a server reply would be. *)

open Perfbench

let content = Content.create ~seed:7
let file = { Workload.path = "/f00000.bin"; size = 200_000; start = 1234 }
let etag = "\"abc-123\""

(* Serve [raw] as the reply to one request; [close] ends the stream
   after it, otherwise the peer stays silent (a hung server).  The
   deadline is generous, so a busy host cannot fail a good response;
   only the silent case, which must time out, uses a short one. *)
let exchange ?(close = true) ?(deadline = 5.0) raw =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float a Unix.SO_RCVTIMEO deadline;
  let c = Client.create ~deadline (fun () -> a) in
  let writer =
    Thread.create
      (fun () ->
        (* Take the request first, as a server would, so closing this end
           is a clean EOF rather than a reset. *)
        ignore (Unix.read b (Bytes.create 4096) 0 4096);
        let n = String.length raw in
        let rec go off = if off < n then go (off + Unix.write_substring b raw off (n - off)) in
        go 0;
        if close then Unix.close b)
      ()
  in
  let r = Client.exchange c "GET /f00000.bin HTTP/1.1\r\n\r\n" in
  Thread.join writer;
  Client.disconnect c;
  if not close then Unix.close b;
  r

let body ~off ~len = Content.sub content ~start:file.Workload.start ~off ~len

let ok200 ?(len = file.Workload.size) () =
  Printf.sprintf "HTTP/1.1 200 OK\r\nContent-Length: %d\r\nETag: %s\r\n\r\n%s"
    file.Workload.size etag (body ~off:0 ~len)

let verdict expect r =
  match r with
  | Error f -> Error (Client.failure_to_string f)
  | Ok resp -> Verify.check content expect resp

let failures = ref 0

let expect_ok name v =
  match v with
  | Ok () -> Printf.printf "ok    %s\n" name
  | Error e ->
      incr failures;
      Printf.printf "FAIL  %s: unexpected failure: %s\n" name e

let expect_fail name v =
  match v with
  | Error e -> Printf.printf "ok    %s (%s)\n" name e
  | Ok () ->
      incr failures;
      Printf.printf "FAIL  %s: accepted a bad response\n" name

let full = Verify.Full { file; etag }

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  expect_ok "whole body" (verdict full (exchange (ok200 ())));
  expect_fail "body 64 KB short, then EOF"
    (verdict full (exchange (ok200 ~len:(file.Workload.size - 65536) ())));
  expect_fail "body 64 KB short, then silence (deadline)"
    (verdict full (exchange ~close:false ~deadline:0.2 (ok200 ~len:(file.Workload.size - 65536) ())));
  (* A skipped 64 KB chunk with the right length: only the bytes tell. *)
  expect_fail "64 KB chunk skipped"
    (verdict full
       (exchange
          (Printf.sprintf "HTTP/1.1 200 OK\r\nContent-Length: %d\r\nETag: %s\r\n\r\n%s%s"
             file.Workload.size etag (body ~off:0 ~len:65536)
             (body ~off:131072 ~len:(file.Workload.size - 65536)))));
  expect_fail "wrong ETag"
    (verdict (Verify.Full { file; etag = "\"other\"" }) (exchange (ok200 ())));
  let partial off len ~served_off =
    exchange
      (Printf.sprintf
         "HTTP/1.1 206 Partial Content\r\nContent-Range: bytes %d-%d/%d\r\nContent-Length: %d\r\nETag: %s\r\n\r\n%s"
         off (off + len - 1) file.Workload.size len etag (body ~off:served_off ~len))
  in
  let range = Verify.Partial { file; etag; off = 1000; len = 500 } in
  expect_ok "range window" (verdict range (partial 1000 500 ~served_off:1000));
  expect_fail "range: body from the wrong window" (verdict range (partial 1000 500 ~served_off:1001));
  expect_fail "range: wrong Content-Range" (verdict range (partial 1001 500 ~served_off:1000));
  let nm = Verify.Not_modified { etag } in
  expect_ok "304" (verdict nm (exchange (Printf.sprintf "HTTP/1.1 304 Not Modified\r\nETag: %s\r\n\r\n" etag)));
  expect_fail "304 with a body"
    (verdict nm
       (exchange
          (Printf.sprintf "HTTP/1.1 304 Not Modified\r\nETag: %s\r\nContent-Length: 5\r\n\r\nhello"
             etag)));
  expect_fail "200 where 304 expected" (verdict nm (exchange (ok200 ())));
  expect_fail "garbage status line" (verdict full (exchange "HTTX/1.1 200 OK\r\n\r\n"));
  (* An 8 MB body split into many small writes still reads in one pass. *)
  let big = { file with Workload.size = 8 * 1024 * 1024 } in
  expect_ok "8 MB body"
    (verdict
       (Verify.Full { file = big; etag })
       (exchange
          (Printf.sprintf "HTTP/1.1 200 OK\r\nContent-Length: %d\r\nETag: %s\r\n\r\n%s"
             big.Workload.size etag
             (Content.sub content ~start:big.Workload.start ~off:0 ~len:big.Workload.size))));
  if !failures > 0 then exit 1
