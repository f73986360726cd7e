let default_server = "Flash/1.0 (OCaml)"

let put b pos s =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

let put_value b pos name value =
  let pos = put b pos name in
  Bytes.set b pos ':';
  Bytes.set b (pos + 1) ' ';
  let pos = put b (pos + 2) value in
  Bytes.set b pos '\r';
  Bytes.set b (pos + 1) '\n';
  pos + 2

let put_field b pos (name, value) = put_value b pos name value

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

type cached = {
  text : string;
  ok_keep : int;
  ok_close : int;
  not_modified_keep : int;
  not_modified_close : int;
}

let ok_line = Status.line_fragment Status.Ok
let not_modified_line = Status.line_fragment Status.Not_modified

let rec extra_length n = function
  | [] -> n
  | (name, value) :: rest ->
      extra_length (n + String.length name + String.length value + 4) rest

let rec put_extra b pos = function
  | [] -> pos
  | (name, value) :: rest -> put_extra b (put_value b pos name value) rest

(* Spaces that bring a [len]-byte header to a multiple of [align]. *)
let padding align len =
  match align with
  | None -> 0
  | Some a ->
      if a <= 0 then invalid_arg "Response.cached: align <= 0";
      (a - (len mod a)) mod a

(* One of [cached]'s variants at [pos], [pad] spaces after the Server
   value, laid out as [render] lays it out; where it ends.  Every value
   is an argument, so no closure is made. *)
let put_variant b pos ~version ~status ~server ~pad ~date ~last_modified
    ~entity ~content_type ~length ~connection ~extra =
  let pos = put b pos version in
  Bytes.set b pos ' ';
  let pos = put b (pos + 1) status in
  let pos = put b pos "\r\nServer: " in
  let pos = put b pos server in
  Bytes.fill b pos pad ' ';
  let pos = put b (pos + pad) "\r\n" in
  let pos = put_value b pos "Date" date in
  let pos = put_value b pos "Last-Modified" last_modified in
  let pos =
    if entity then
      put_value b
        (put_value b pos "Content-Type" content_type)
        "Content-Length" length
    else pos
  in
  let pos = put_value b pos "Connection" connection in
  put b (put_extra b pos extra) "\r\n"

let field_length name value = String.length name + String.length value + 4

(* The four variants [header_pair] renders for a 200 and a 304, written
   one after another into one buffer made at its final size: each is
   measured first, from the one formatted Date, Last-Modified and
   Content-Length. *)
let cached ?(version = "HTTP/1.0") ?(server = default_server) ?align
    ~content_type ~content_length ~date ~last_modified ~ok_extra
    ~not_modified_extra () =
  let date = Http_date.format date
  and last_modified = Http_date.format last_modified
  and length = Digits.decimal content_length in
  let common =
    String.length version + String.length server + 15
    + field_length "Date" date
    + field_length "Last-Modified" last_modified
  in
  let ok =
    common + String.length ok_line
    + field_length "Content-Type" content_type
    + field_length "Content-Length" length
    + extra_length 0 ok_extra
  and not_modified =
    common
    + String.length not_modified_line
    + extra_length 0 not_modified_extra
  and keep = field_length "Connection" "keep-alive"
  and close = field_length "Connection" "close" in
  let ok_keep_pad = padding align (ok + keep)
  and ok_close_pad = padding align (ok + close)
  and nm_keep_pad = padding align (not_modified + keep)
  and nm_close_pad = padding align (not_modified + close) in
  let ok_keep = ok + keep + ok_keep_pad
  and ok_close = ok + close + ok_close_pad
  and not_modified_keep = not_modified + keep + nm_keep_pad
  and not_modified_close = not_modified + close + nm_close_pad in
  let b =
    Bytes.create (ok_keep + ok_close + not_modified_keep + not_modified_close)
  in
  let pos =
    put_variant b 0 ~version ~status:ok_line ~server ~pad:ok_keep_pad ~date
      ~last_modified ~entity:true ~content_type ~length
      ~connection:"keep-alive" ~extra:ok_extra
  in
  let pos =
    put_variant b pos ~version ~status:ok_line ~server ~pad:ok_close_pad
      ~date ~last_modified ~entity:true ~content_type ~length
      ~connection:"close" ~extra:ok_extra
  in
  let pos =
    put_variant b pos ~version ~status:not_modified_line ~server
      ~pad:nm_keep_pad ~date ~last_modified ~entity:false ~content_type
      ~length ~connection:"keep-alive" ~extra:not_modified_extra
  in
  ignore
    (put_variant b pos ~version ~status:not_modified_line ~server
       ~pad:nm_close_pad ~date ~last_modified ~entity:false ~content_type
       ~length ~connection:"close" ~extra:not_modified_extra);
  {
    text = Bytes.unsafe_to_string b;
    ok_keep;
    ok_close;
    not_modified_keep;
    not_modified_close;
  }

let retry_after seconds =
  if seconds < 0 then invalid_arg "Response.retry_after: negative delay";
  ("Retry-After", string_of_int seconds)

let error_body status =
  let line = Status.line_fragment status in
  String.concat ""
    [ "<html><head><title>"; line; "</title></head><body><h1>"; line;
      "</h1></body></html>\n" ]
