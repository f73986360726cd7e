let default_server = "Flash/1.0 (OCaml)"

let put b pos s =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

let put_field b pos (name, value) =
  let pos = put b pos name in
  Bytes.set b pos ':';
  Bytes.set b (pos + 1) ' ';
  let pos = put b (pos + 2) value in
  Bytes.set b pos '\r';
  Bytes.set b (pos + 1) '\n';
  pos + 2

(* A header is measured, then written once into a buffer of its final
   size.  [fields] are (name, value) groups in wire order.  Alignment
   (§5.5) pads the variable-length Server value with spaces inside that
   one write: the header grows by the same number of bytes the field
   does. *)
let render ~version ~server ~status ~fields ~align =
  let status = Status.line_fragment status in
  let measure n (name, value) =
    n + String.length name + String.length value + 4
  in
  (* " ", "\r\nServer: ", "\r\n" after the Server value, and the
     blank line: 15 bytes around the status line and Server value. *)
  let len =
    List.fold_left (List.fold_left measure)
      (String.length version + String.length status + String.length server
     + 15)
      fields
  in
  let pad =
    match align with
    | None -> 0
    | Some a ->
        if a <= 0 then invalid_arg "Response.header: align <= 0";
        (a - (len mod a)) mod a
  in
  let b = Bytes.create (len + pad) in
  let pos = put b 0 version in
  Bytes.set b pos ' ';
  let pos = put b (pos + 1) status in
  let pos = put b pos "\r\nServer: " in
  let pos = put b pos server in
  Bytes.fill b pos pad ' ';
  let pos = put b (pos + pad) "\r\n" in
  let pos = List.fold_left (List.fold_left (put_field b)) pos fields in
  ignore (put b pos "\r\n");
  Bytes.unsafe_to_string b

(* The fields between Server and Connection, dates formatted once. *)
let entity_fields ~content_type ~content_length ~date ~last_modified =
  let opt name render v rest =
    match v with Some v -> (name, render v) :: rest | None -> rest
  in
  opt "Date" Http_date.format date
    (opt "Last-Modified" Http_date.format last_modified
       (opt "Content-Type" Fun.id content_type
          (opt "Content-Length" Digits.decimal content_length [])))

let connection = function
  | Some true -> [ ("Connection", "keep-alive") ]
  | Some false -> [ ("Connection", "close") ]
  | None -> []

let header ?(version = "HTTP/1.0") ?(server = default_server) ?content_type
    ?content_length ?keep_alive ?date ?last_modified ?(extra = []) ?align
    ~status () =
  render ~version ~server ~status ~align
    ~fields:
      [
        entity_fields ~content_type ~content_length ~date ~last_modified;
        connection keep_alive;
        extra;
      ]

let header_pair ?(version = "HTTP/1.0") ?(server = default_server)
    ?content_type ?content_length ?date ?last_modified ?(extra = []) ?align
    ~status () =
  let entity =
    entity_fields ~content_type ~content_length ~date ~last_modified
  in
  let render keep_alive =
    render ~version ~server ~status ~align
      ~fields:[ entity; connection (Some keep_alive); extra ]
  in
  (render true, render false)

let retry_after seconds =
  if seconds < 0 then invalid_arg "Response.retry_after: negative delay";
  ("Retry-After", string_of_int seconds)

let error_body status =
  let line = Status.line_fragment status in
  String.concat ""
    [ "<html><head><title>"; line; "</title></head><body><h1>"; line;
      "</h1></body></html>\n" ]
