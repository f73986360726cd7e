(* Shared test utilities. *)

(* Run [f] inside a simulated process and drain the engine; fail the test
   if the process never finished (deadlock). *)
let run_sim ?seed f =
  let engine = Sim.Engine.create ?seed () in
  let result = ref None in
  ignore (Sim.Proc.spawn engine ~name:"test-main" (fun () -> result := Some (f engine)));
  ignore (Sim.Engine.run engine);
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "simulated process did not run to completion"

(* Same, but with a time bound (for tests over never-terminating servers). *)
let run_sim_until ?seed ~until f =
  let engine = Sim.Engine.create ?seed () in
  let result = ref None in
  ignore (Sim.Proc.spawn engine ~name:"test-main" (fun () -> result := Some (f engine)));
  ignore (Sim.Engine.run ~until engine);
  !result

let qcheck_case ?(count = 200) ~name arbitrary prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arbitrary prop)

let float_eq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float ~msg ?(eps = 1e-9) expected actual =
  if not (float_eq ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* Substring search, to avoid depending on astring in tests. *)
let contains ~affix s =
  let n = String.length s and m = String.length affix in
  let rec scan i = i + m <= n && (String.sub s i m = affix || scan (i + 1)) in
  m = 0 || scan 0

(* ------------------------------------------------------------------ *)
(* Raw-socket HTTP driver for conformance tests                        *)
(* ------------------------------------------------------------------ *)

(* A deliberately independent HTTP client: requests are written as raw
   bytes and responses parsed here, not through [Flash_live.Client], so
   conformance tests exercise the wire format itself (and can make
   requests the high-level client would not, e.g. conflicting
   conditionals).  [raw] preserves the exact bytes of the response for
   byte-identity comparisons across server architectures. *)
module Raw = struct
  type response = {
    status : int;
    reason : string;
    headers : (string * string) list;  (* names lowercased *)
    body : string;
    raw : string;  (* status line + headers + body, exactly as received *)
  }

  (* Close-on-exec, so a CGI script that the server in this process
     starts cannot hold the client's end open past its close. *)
  let connect ~port =
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
     with e ->
       Unix.close fd;
       raise e);
    fd

  let read_until_close fd acc =
    let buf = Bytes.create 16384 in
    let rec go () =
      match Unix.read fd buf 0 16384 with
      | 0 -> ()
      | n ->
          Buffer.add_subbytes acc buf 0 n;
          go ()
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
    in
    go ()

  let find_head_end s from =
    let n = String.length s in
    let rec go i =
      if i + 4 > n then None
      else if String.sub s i 4 = "\r\n\r\n" then Some (i + 4)
      else go (i + 1)
    in
    go from

  let parse_head head =
    match String.split_on_char '\n' head with
    | [] -> Alcotest.fail "raw: empty response head"
    | status_line :: header_lines ->
        let status_line = String.trim status_line in
        let status, reason =
          match String.split_on_char ' ' status_line with
          | _http :: code :: rest ->
              ( (match int_of_string_opt code with
                | Some c -> c
                | None -> Alcotest.failf "raw: bad status line %S" status_line),
                String.concat " " rest )
          | _ -> Alcotest.failf "raw: bad status line %S" status_line
        in
        let headers =
          List.filter_map
            (fun line ->
              let line = String.trim line in
              match String.index_opt line ':' with
              | None -> None
              | Some i ->
                  Some
                    ( String.lowercase_ascii (String.sub line 0 i),
                      String.trim
                        (String.sub line (i + 1) (String.length line - i - 1))
                    ))
            header_lines
        in
        (status, reason, headers)

  (* Read one response from [fd] given [leftover] bytes already read;
     returns it plus the unconsumed tail.  Body framing: HEAD and 304
     have none; otherwise Content-Length; otherwise read to close. *)
  let read_response ?(head_request = false) fd leftover =
    let acc = Buffer.create 4096 in
    Buffer.add_string acc leftover;
    let head_end =
      let rec wait () =
        match find_head_end (Buffer.contents acc) 0 with
        | Some e -> e
        | None ->
            let buf = Bytes.create 16384 in
            (match Unix.read fd buf 0 16384 with
            | 0 -> Alcotest.fail "raw: connection closed before response head"
            | n -> Buffer.add_subbytes acc buf 0 n);
            wait ()
      in
      wait ()
    in
    let all = Buffer.contents acc in
    let head = String.sub all 0 head_end in
    let status, reason, headers = parse_head head in
    let body, rest =
      if head_request || status = 304 then ("", String.sub all head_end (String.length all - head_end))
      else
        match List.assoc_opt "content-length" headers with
        | Some len_s ->
            let len = int_of_string (String.trim len_s) in
            let acc = Buffer.create (String.length all) in
            Buffer.add_string acc all;
            while Buffer.length acc < head_end + len do
              let buf = Bytes.create 16384 in
              match Unix.read fd buf 0 16384 with
              | 0 -> Alcotest.fail "raw: connection closed mid-body"
              | n -> Buffer.add_subbytes acc buf 0 n
            done;
            let all = Buffer.contents acc in
            ( String.sub all head_end len,
              String.sub all (head_end + len)
                (String.length all - head_end - len) )
        | None ->
            let acc2 = Buffer.create 4096 in
            Buffer.add_string acc2 all;
            read_until_close fd acc2;
            let all = Buffer.contents acc2 in
            (String.sub all head_end (String.length all - head_end), "")
    in
    ({ status; reason; headers; body; raw = head ^ body }, rest)

  let write_request fd ~meth ~target ~headers ~close =
    let conn = if close then "close" else "keep-alive" in
    let payload =
      Printf.sprintf "%s %s HTTP/1.1\r\nHost: conformance\r\nConnection: %s\r\n"
        meth target conn
      ^ String.concat ""
          (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers)
      ^ "\r\n"
    in
    ignore (Unix.write_substring fd payload 0 (String.length payload))

  (* One-shot: connect, send, read the whole close-delimited response.
     The body is everything after the head with no framing applied, so a
     304 or HEAD response that wrongly carried payload bytes shows up as
     a non-empty body rather than being silently skipped. *)
  let request ~port ?(meth = "GET") ?(headers = []) target =
    let fd = connect ~port in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        write_request fd ~meth ~target ~headers ~close:true;
        let acc = Buffer.create 8192 in
        read_until_close fd acc;
        let all = Buffer.contents acc in
        match find_head_end all 0 with
        | None ->
            Alcotest.failf "raw: no response head in %d bytes"
              (String.length all)
        | Some head_end ->
            let head = String.sub all 0 head_end in
            let status, reason, headers = parse_head head in
            {
              status;
              reason;
              headers;
              body = String.sub all head_end (String.length all - head_end);
              raw = all;
            })

  (* Persistent connection: requests processed strictly in order by the
     server, which the send-path counter tests rely on. *)
  type session = { fd : Unix.file_descr; mutable leftover : string }

  let open_session ~port = { fd = connect ~port; leftover = "" }

  let session_request s ?(meth = "GET") ?(headers = []) target =
    write_request s.fd ~meth ~target ~headers ~close:false;
    let r, rest = read_response ~head_request:(meth = "HEAD") s.fd s.leftover in
    s.leftover <- rest;
    r

  let close_session s = try Unix.close s.fd with Unix.Unix_error _ -> ()

  (* Replace volatile header values (Date) so responses from servers
     started at different moments compare byte-for-byte. *)
  let mask_dates raw =
    let b = Buffer.create (String.length raw) in
    let lines = String.split_on_char '\n' raw in
    List.iteri
      (fun i line ->
        if i > 0 then Buffer.add_char b '\n';
        let lower = String.lowercase_ascii line in
        if
          String.length lower >= 5
          && String.sub lower 0 5 = "date:"
        then Buffer.add_string b "date: <masked>\r"
        else Buffer.add_string b line)
      lines;
    Buffer.contents b
end

(* ------------------------------------------------------------------ *)
(* Process resources                                                   *)
(* ------------------------------------------------------------------ *)

(* Open descriptors and threads of this process, read from /proc; [None]
   where there is no /proc. *)
let open_fds () =
  match Sys.readdir "/proc/self/fd" with
  | entries -> Some (Array.length entries)
  | exception Sys_error _ -> None

let threads () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec find () =
        match input_line ic with
        | line when String.length line > 8 && String.sub line 0 8 = "Threads:"
          ->
            Some (int_of_string (String.trim (String.sub line 8 (String.length line - 8))))
        | _ -> find ()
        | exception End_of_file -> None
      in
      let n = find () in
      close_in ic;
      n

(* A count once it has held still for 20 ms: threads and descriptors
   an earlier test released may still be on their way out. *)
let settled count =
  let rec go last tries =
    Thread.delay 0.02;
    let now = count () in
    if now = last || tries = 0 then now else go now (tries - 1)
  in
  go (count ()) 50

(* A start that fails (here: an access log in a directory that does not
   exist) must leave the process as it found it: no descriptor and no
   thread left behind.  A count may fall meanwhile (something an
   earlier test started finishing), never rise. *)
let check_failed_start_leaks_nothing mode =
  let docroot = Filename.get_temp_dir_name () in
  let config =
    {
      (Flash_live.Server.default_config ~docroot) with
      Flash_live.Server.mode;
      port = 0;
      access_log = Some "/nonexistent-flash-dir/sub/access.log";
    }
  in
  (* The runtime starts its tick thread with the first thread a
     program creates, and keeps it: start it before counting. *)
  Thread.join (Thread.create ignore ());
  let fds = settled open_fds and ths = settled threads in
  (match Flash_live.Server.start config with
  | exception Sys_error _ -> ()
  | server ->
      Flash_live.Server.stop server;
      Alcotest.fail "start with an unopenable access log succeeded");
  (* A joined thread can take a moment to leave the kernel's count, so a
     count above its first value gets a second to come back down. *)
  let no_more what before count =
    let rec wait tries =
      match (before, count ()) with
      | Some b, Some a when a > b ->
          if tries = 0 then Alcotest.failf "%s: %d before, %d after" what b a
          else begin
            Thread.delay 0.02;
            wait (tries - 1)
          end
      | _ -> ()
    in
    wait 50
  in
  no_more "open descriptors" fds open_fds;
  no_more "threads" ths threads
