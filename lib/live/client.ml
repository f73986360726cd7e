type response = {
  status : int;
  headers : (string * string) list;
  body : string;
}

let read_some fd =
  let buf = Bytes.create 16384 in
  match Unix.read fd buf 0 16384 with
  | 0 -> None
  | n -> Some (Bytes.sub_string buf 0 n)

(* Read one response from [fd], starting from the leftover bytes in
   [buf]; returns the response and the remaining unconsumed bytes (which
   belong to the next pipelined response). *)
let read_response ?(head_request = false) fd buf =
  let rec head_loop () =
    match Http.Response_parser.parse_head !buf with
    | Http.Response_parser.Head (head, consumed) ->
        buf := String.sub !buf consumed (String.length !buf - consumed);
        head
    | Http.Response_parser.Incomplete -> (
        match read_some fd with
        | Some data ->
            buf := !buf ^ data;
            head_loop ()
        | None -> failwith "connection closed before response head")
    | Http.Response_parser.Bad msg -> failwith ("bad response: " ^ msg)
  in
  let head = head_loop () in
  let body =
    match Http.Response_parser.body_framing head ~head_request with
    | Http.Response_parser.No_body -> ""
    | Http.Response_parser.Fixed len ->
        while String.length !buf < len do
          match read_some fd with
          | Some data -> buf := !buf ^ data
          | None -> failwith "connection closed mid-body"
        done;
        let body = String.sub !buf 0 len in
        buf := String.sub !buf len (String.length !buf - len);
        body
    | Http.Response_parser.Until_close ->
        let rec drain () =
          match read_some fd with
          | Some data ->
              buf := !buf ^ data;
              drain ()
          | None -> ()
        in
        drain ();
        let body = !buf in
        buf := "";
        body
  in
  {
    status = head.Http.Response_parser.status;
    headers = head.Http.Response_parser.headers;
    body;
  }

let send_request fd ~meth ~version ~extra_headers path =
  let lines =
    Printf.sprintf "%s %s %s\r\n" meth path version
    :: List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) extra_headers
    @ [ "\r\n" ]
  in
  let payload = String.concat "" lines in
  ignore (Unix.write_substring fd payload 0 (String.length payload))

let connect_fd ?src ~host ~port () =
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } -> failwith ("no address for " ^ host)
      | { Unix.h_addr_list; _ } -> h_addr_list.(0))
  in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     (match src with
     | Some s ->
         Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string s, 0))
     | None -> ());
     Unix.connect fd (Unix.ADDR_INET (addr, port))
   with e ->
     Unix.close fd;
     raise e);
  fd

let get ?(meth = "GET") ?(headers = []) ?src ~host ~port path =
  let fd = connect_fd ?src ~host ~port () in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      send_request fd ~meth ~version:"HTTP/1.0"
        ~extra_headers:(("Host", host) :: headers)
        path;
      read_response ~head_request:(meth = "HEAD") fd (ref ""))

module Session = struct
  type t = {
    fd : Unix.file_descr;
    host : string;
    leftover : string ref;  (** bytes of the next response already read *)
    mutable closed : bool;
  }

  let connect ?src ~host ~port () =
    {
      fd = connect_fd ?src ~host ~port ();
      host;
      leftover = ref "";
      closed = false;
    }

  let request ?(meth = "GET") ?(headers = []) t path =
    if t.closed then failwith "Client.Session: closed";
    send_request t.fd ~meth ~version:"HTTP/1.1"
      ~extra_headers:
        ([ ("Host", t.host); ("Connection", "keep-alive") ] @ headers)
      path;
    read_response ~head_request:(meth = "HEAD") t.fd t.leftover

  let close t =
    if not t.closed then begin
      t.closed <- true;
      try Unix.close t.fd with Unix.Unix_error _ -> ()
    end
end
