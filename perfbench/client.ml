(* The benchmark's own HTTP/1.1 client: one keep-alive connection, one
   request at a time.  Heads are read into a reusable buffer and bodies
   straight into a second reusable buffer that grows by doubling, so an
   N-byte body costs O(N) however it is split across reads.  Every
   exchange has a deadline; any failure closes the connection and the
   next exchange reconnects. *)

type failure =
  | Timeout  (** the response deadline passed *)
  | Closed of int  (** EOF before the framed response ended; bytes of body read *)
  | Io of string  (** connect/read/write error *)
  | Malformed of string  (** unparseable status line or headers *)

let failure_to_string = function
  | Timeout -> "deadline passed"
  | Closed n -> Printf.sprintf "connection closed after %d body bytes" n
  | Io e -> "io: " ^ e
  | Malformed m -> "malformed: " ^ m

type response = {
  status : int;
  headers : (string * string) list;  (** names lowercased *)
  body : Bytes.t;  (** shared buffer, valid until the next exchange *)
  body_len : int;
  trailing : int;
      (** bytes that arrived past the framed response: in a closed loop
          the server has no business sending them *)
}

let header r name = List.assoc_opt name r.headers

type t = {
  connect : unit -> Unix.file_descr;
  deadline : float;  (** seconds *)
  mutable fd : Unix.file_descr option;
  mutable rbuf : Bytes.t;
  mutable rlen : int;  (** buffered bytes in [rbuf] *)
  mutable body : Bytes.t;
}

let max_head = 65536

let create ?(deadline = 2.0) connect =
  {
    connect;
    deadline;
    fd = None;
    rbuf = Bytes.create 4096;
    rlen = 0;
    body = Bytes.create 65536;
  }

let tcp_connect ?(deadline = 2.0) port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.TCP_NODELAY true;
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO deadline;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO deadline;
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  fd

let disconnect t =
  (match t.fd with Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ()) | None -> ());
  t.fd <- None;
  t.rlen <- 0

exception Fail of failure

let now () = Unix.gettimeofday ()

(* One read into [buf] at [off]; EOF, timeouts and errors become
   failures. *)
let read_some t fd buf off len ~t0 ~on_eof =
  match Unix.read fd buf off len with
  | 0 -> raise (Fail (on_eof ()))
  | n ->
      if now () -. t0 > t.deadline then raise (Fail Timeout);
      n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      raise (Fail Timeout)
  | exception Unix.Unix_error (e, _, _) -> raise (Fail (Io (Unix.error_message e)))

let find_head_end buf len =
  let rec go i =
    if i + 3 >= len then None
    else if
      Bytes.unsafe_get buf i = '\r'
      && Bytes.unsafe_get buf (i + 1) = '\n'
      && Bytes.unsafe_get buf (i + 2) = '\r'
      && Bytes.unsafe_get buf (i + 3) = '\n'
    then Some (i + 4)
    else go (i + 1)
  in
  go 0

(* Status code and lowercased headers of a response head (the text
   before the blank line). *)
let parse_head head =
  match String.split_on_char '\n' head with
  | [] -> Error "empty head"
  | status_line :: lines -> (
      let trim_cr s =
        let n = String.length s in
        if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s
      in
      match String.split_on_char ' ' (trim_cr status_line) with
      | version :: code :: _
        when String.length version >= 5 && String.sub version 0 5 = "HTTP/" -> (
          match int_of_string_opt code with
          | None -> Error ("bad status code " ^ code)
          | Some status ->
              let rec headers acc = function
                | [] -> Ok (status, List.rev acc)
                | l :: rest -> (
                    let l = trim_cr l in
                    if l = "" then headers acc rest
                    else
                      match String.index_opt l ':' with
                      | None -> Error ("header without colon: " ^ l)
                      | Some i ->
                          let name = String.lowercase_ascii (String.sub l 0 i) in
                          let v =
                            String.trim (String.sub l (i + 1) (String.length l - i - 1))
                          in
                          headers ((name, v) :: acc) rest)
              in
              headers [] lines)
      | _ -> Error ("bad status line: " ^ trim_cr status_line))

let no_body status = status = 304 || status = 204 || (status >= 100 && status < 200)

let exchange_exn t request =
  let t0 = now () in
  let fd =
    match t.fd with
    | Some fd -> fd
    | None -> (
        match t.connect () with
        | fd ->
            t.fd <- Some fd;
            fd
        | exception Unix.Unix_error (e, _, _) -> raise (Fail (Io (Unix.error_message e))))
  in
  (try
     let n = String.length request in
     let rec send off =
       if off < n then send (off + Unix.write_substring fd request off (n - off))
     in
     send 0
   with Unix.Unix_error (e, _, _) -> raise (Fail (Io (Unix.error_message e))));
  let rec head () =
    match find_head_end t.rbuf t.rlen with
    | Some e -> e
    | None ->
        if t.rlen >= max_head then raise (Fail (Malformed "head too long"));
        if t.rlen = Bytes.length t.rbuf then begin
          let nb = Bytes.create (2 * Bytes.length t.rbuf) in
          Bytes.blit t.rbuf 0 nb 0 t.rlen;
          t.rbuf <- nb
        end;
        let n =
          read_some t fd t.rbuf t.rlen (Bytes.length t.rbuf - t.rlen) ~t0
            ~on_eof:(fun () -> Closed 0)
        in
        t.rlen <- t.rlen + n;
        head ()
  in
  let head_end = head () in
  let status, headers =
    match parse_head (Bytes.sub_string t.rbuf 0 (head_end - 4)) with
    | Ok h -> h
    | Error m -> raise (Fail (Malformed m))
  in
  let body_len =
    if no_body status then 0
    else
      match List.assoc_opt "content-length" headers with
      | None -> raise (Fail (Malformed "no Content-Length"))
      | Some v -> (
          match int_of_string_opt v with
          | Some n when n >= 0 -> n
          | _ -> raise (Fail (Malformed ("bad Content-Length " ^ v))))
  in
  if Bytes.length t.body < body_len then begin
    let rec grow c = if c >= body_len then c else grow (2 * c) in
    t.body <- Bytes.create (grow (Bytes.length t.body))
  end;
  let buffered = t.rlen - head_end in
  let from_buf = min buffered body_len in
  Bytes.blit t.rbuf head_end t.body 0 from_buf;
  let trailing = buffered - from_buf in
  (* Keep anything past this response at the front of [rbuf]: it is
     reported as [trailing] and then poisons the next head parse. *)
  Bytes.blit t.rbuf (head_end + from_buf) t.rbuf 0 trailing;
  t.rlen <- trailing;
  let rec body got =
    if got < body_len then
      body
        (got
        + read_some t fd t.body got (body_len - got) ~t0 ~on_eof:(fun () -> Closed got))
  in
  body from_buf;
  let r = { status; headers; body = t.body; body_len; trailing } in
  if header r "connection" = Some "close" then disconnect t;
  r

let exchange t request =
  match exchange_exn t request with
  | r -> Ok r
  | exception Fail f ->
      disconnect t;
      Error f
