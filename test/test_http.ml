module Request = Http.Request
module Response = Http.Response
module Status = Http.Status

(* ------------------------- status ------------------------- *)

let test_status_codes () =
  Alcotest.(check int) "200" 200 (Status.code Status.Ok);
  Alcotest.(check int) "404" 404 (Status.code Status.Not_found);
  Alcotest.(check string) "line" "404 Not Found"
    (Status.line_fragment Status.Not_found);
  (* The HTTP/1.1 semantics statuses. *)
  Alcotest.(check string) "206" "206 Partial Content"
    (Status.line_fragment Status.Partial_content);
  Alcotest.(check string) "304" "304 Not Modified"
    (Status.line_fragment Status.Not_modified);
  Alcotest.(check string) "412" "412 Precondition Failed"
    (Status.line_fragment Status.Precondition_failed);
  Alcotest.(check string) "416" "416 Range Not Satisfiable"
    (Status.line_fragment Status.Range_not_satisfiable)

(* ------------------------- mime ------------------------- *)

let test_mime () =
  Alcotest.(check string) "html" "text/html" (Http.Mime.of_path "/a/b.html");
  Alcotest.(check string) "uppercase ext" "image/gif" (Http.Mime.of_path "/x.GIF");
  Alcotest.(check string) "unknown" "application/octet-stream"
    (Http.Mime.of_path "/x.weird");
  Alcotest.(check string) "no extension" "application/octet-stream"
    (Http.Mime.of_path "/README");
  Alcotest.(check string) "dot in dir only" "application/octet-stream"
    (Http.Mime.of_path "/v1.2/file");
  Alcotest.(check string) "trailing dot" "application/octet-stream"
    (Http.Mime.of_path "/file.")

(* ------------------------- dates ------------------------- *)

let test_date_epoch () =
  Alcotest.(check string) "epoch" "Thu, 01 Jan 1970 00:00:00 GMT"
    (Http.Http_date.format 0.)

let test_date_known () =
  (* The RFC 1123 example: Sun, 06 Nov 1994 08:49:37 GMT = 784111777. *)
  Alcotest.(check string) "rfc example" "Sun, 06 Nov 1994 08:49:37 GMT"
    (Http.Http_date.format 784111777.)

let test_date_civil () =
  Alcotest.(check (triple int int int)) "epoch day" (1970, 1, 1)
    (Http.Http_date.civil_of_days 0);
  Alcotest.(check (triple int int int)) "leap day" (2000, 2, 29)
    (Http.Http_date.civil_of_days 11016);
  Alcotest.(check int) "thursday" 4 (Http.Http_date.weekday_of_days 0)

(* ------------------------- request parsing ------------------------- *)

let parse_ok buf =
  match Request.parse buf with
  | Request.Complete (req, consumed) -> (req, consumed)
  | Request.Incomplete -> Alcotest.fail "unexpected Incomplete"
  | Request.Bad msg -> Alcotest.failf "unexpected Bad: %s" msg

let test_parse_simple_get () =
  let req, consumed = parse_ok "GET /index.html HTTP/1.0\r\n\r\n" in
  Alcotest.(check string) "path" "/index.html" req.Request.path;
  Alcotest.(check bool) "GET" true (req.Request.meth = Request.Get);
  Alcotest.(check (pair int int)) "version" (1, 0) req.Request.version;
  Alcotest.(check int) "consumed" 28 consumed;
  Alcotest.(check bool) "1.0 not keep-alive" false (Request.keep_alive req)

let test_parse_headers () =
  let req, _ =
    parse_ok
      "GET /x HTTP/1.1\r\nHost: example.com\r\nUser-Agent: test\r\nConnection: close\r\n\r\n"
  in
  Alcotest.(check (option string)) "host" (Some "example.com")
    (Request.header req "Host");
  Alcotest.(check (option string)) "case-insensitive" (Some "test")
    (Request.header req "user-agent");
  Alcotest.(check bool) "explicit close wins over 1.1" false
    (Request.keep_alive req)

let test_keep_alive_defaults () =
  let req11, _ = parse_ok "GET / HTTP/1.1\r\nHost: h\r\n\r\n" in
  Alcotest.(check bool) "1.1 default keep" true (Request.keep_alive req11);
  let req10ka, _ = parse_ok "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n" in
  Alcotest.(check bool) "1.0 + keep-alive header" true (Request.keep_alive req10ka)

let test_parse_query_and_decode () =
  let req, _ = parse_ok "GET /cgi-bin/run%20me?x=1&y=2 HTTP/1.0\r\n\r\n" in
  Alcotest.(check string) "decoded path" "/cgi-bin/run me" req.Request.path;
  Alcotest.(check (option string)) "query" (Some "x=1&y=2") req.Request.query

let test_parse_incremental () =
  (match Request.parse "GET /part" with
  | Request.Incomplete -> ()
  | _ -> Alcotest.fail "expected Incomplete");
  match Request.parse "GET /part HTTP/1.0\r\nHost: h\r\n" with
  | Request.Incomplete -> ()
  | _ -> Alcotest.fail "expected Incomplete (no blank line)"

let test_parse_pipelined_consumed () =
  let buf = "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n" in
  let req, consumed = parse_ok buf in
  Alcotest.(check string) "first request" "/a" req.Request.path;
  let rest = String.sub buf consumed (String.length buf - consumed) in
  let req2, _ = parse_ok rest in
  Alcotest.(check string) "second request" "/b" req2.Request.path

let test_parse_lf_only () =
  let req, _ = parse_ok "GET /lf HTTP/1.0\nHost: h\n\n" in
  Alcotest.(check string) "path" "/lf" req.Request.path;
  Alcotest.(check (option string)) "header" (Some "h") (Request.header req "host")

let test_parse_http09 () =
  let req, _ = parse_ok "GET /old\r\n\r\n" in
  Alcotest.(check (pair int int)) "0.9" (0, 9) req.Request.version

let test_parse_bad () =
  let is_bad buf =
    match Request.parse buf with Request.Bad _ -> true | _ -> false
  in
  Alcotest.(check bool) "bad version" true (is_bad "GET / HTTP/9\r\n\r\n");
  Alcotest.(check bool) "relative target" true (is_bad "GET foo HTTP/1.0\r\n\r\n");
  Alcotest.(check bool) "garbage line" true (is_bad "ONE TWO THREE FOUR\r\n\r\n");
  Alcotest.(check bool) "oversized head" true
    (is_bad (String.make 20_000 'x'))

let test_head_and_post () =
  let req, _ = parse_ok "HEAD /h HTTP/1.0\r\n\r\n" in
  Alcotest.(check bool) "HEAD" true (req.Request.meth = Request.Head);
  let req2, _ = parse_ok "POST /p HTTP/1.0\r\n\r\n" in
  Alcotest.(check bool) "POST" true (req2.Request.meth = Request.Post);
  let req3, _ = parse_ok "BREW /c HTTP/1.0\r\n\r\n" in
  Alcotest.(check bool) "other" true (req3.Request.meth = Request.Other "BREW")

let test_normalize_path () =
  let check_norm input expected =
    Alcotest.(check (option string)) input expected (Request.normalize_path input)
  in
  check_norm "/" (Some "/");
  check_norm "/a/b.html" (Some "/a/b.html");
  check_norm "/a//b" (Some "/a/b");
  check_norm "/a/./b" (Some "/a/b");
  check_norm "/a/../b" (Some "/b");
  check_norm "/../etc/passwd" None;
  check_norm "/a/b/../../../x" None;
  check_norm "relative" None;
  check_norm "" None

let prop_parser_never_raises =
  Helpers.qcheck_case ~count:500 ~name:"parser total on arbitrary bytes"
    QCheck.(string_gen_of_size (Gen.int_range 0 200) Gen.char)
    (fun s ->
      match Request.parse s with
      | Request.Complete _ | Request.Incomplete | Request.Bad _ -> true)

let prop_roundtrip_simple =
  Helpers.qcheck_case ~name:"well-formed GET always parses"
    QCheck.(string_gen_of_size (Gen.int_range 1 30) Gen.printable)
    (fun name ->
      let clean =
        String.map
          (fun c -> if c = ' ' || c = '\r' || c = '\n' || c = '?' then '_' else c)
          name
      in
      let buf = "GET /" ^ clean ^ " HTTP/1.0\r\n\r\n" in
      match Request.parse buf with
      | Request.Complete (req, consumed) ->
          consumed = String.length buf
          && req.Request.raw_target = "/" ^ clean
      | _ -> false)

(* ------------------------- responses ------------------------- *)

let test_response_basic () =
  let h =
    Response.header ~status:Status.Ok ~content_type:"text/html"
      ~content_length:1234 ()
  in
  Alcotest.(check bool) "status line" true
    (String.length h > 17 && String.sub h 0 17 = "HTTP/1.0 200 OK\r\n");
  Alcotest.(check bool) "content length present" true
    (Helpers.contains ~affix:"Content-Length: 1234\r\n" h);
  Alcotest.(check bool) "ends with blank line" true
    (String.sub h (String.length h - 4) 4 = "\r\n\r\n")

let test_response_alignment () =
  (* Flash §5.5: padded headers are a multiple of 32 bytes. *)
  List.iter
    (fun len ->
      let h =
        Response.header ~status:Status.Ok ~content_type:"text/html"
          ~content_length:len ~align:32 ()
      in
      Alcotest.(check int)
        (Printf.sprintf "aligned for len %d" len)
        0
        (String.length h mod 32))
    [ 0; 1; 7; 100; 999; 12345; 1048576 ]

let test_response_alignment_varies_fields () =
  let h1 =
    Response.header ~status:Status.Ok ~content_length:5 ~align:32 ()
  in
  let h2 =
    Response.header ~status:Status.Ok ~content_length:55555 ~align:32 ()
  in
  Alcotest.(check int) "both aligned" 0
    ((String.length h1 mod 32) + (String.length h2 mod 32))

let test_response_keep_alive_header () =
  let h = Response.header ~status:Status.Ok ~keep_alive:true () in
  Alcotest.(check bool) "keep-alive" true
    (Helpers.contains ~affix:"Connection: keep-alive" h);
  let h2 = Response.header ~status:Status.Ok ~keep_alive:false () in
  Alcotest.(check bool) "close" true (Helpers.contains ~affix:"Connection: close" h2)

let test_response_parses_back () =
  (* Our own client-side framing: the header terminates with CRLFCRLF. *)
  let h =
    Response.header ~status:Status.Not_found ~content_type:"text/html"
      ~content_length:10 ~date:1000000. ~align:32 ()
  in
  Alcotest.(check bool) "single blank line at end" true
    (Helpers.contains ~affix:"\r\n\r\n" h)

let test_error_body () =
  let body = Response.error_body Status.Not_found in
  Alcotest.(check bool) "mentions status" true
    (Helpers.contains ~affix:"404 Not Found" body)

let prop_alignment =
  Helpers.qcheck_case ~name:"aligned headers are multiples of 32"
    QCheck.(int_bound 10_000_000)
    (fun len ->
      let h = Response.header ~status:Status.Ok ~content_length:len ~align:32 () in
      String.length h mod 32 = 0)

(* ------------------------- byte identity ------------------------- *)

(* Every input the header renderers take, drawn at random and checked
   against the Printf model in [Http_ref]. *)
type render_case = {
  status : Status.t;
  version : string option;
  server : string option;
  content_type : string option;
  content_length : int option;
  keep_alive : bool option;
  date : float option;
  last_modified : float option;
  extra : (string * string) list;
  align : int option;
  mtime : float;
  suffix : string option;
  size : int;
  off : int;
  len : int;
}

let all_statuses =
  Status.
    [
      Ok; Partial_content; Moved_permanently; Not_modified; Bad_request;
      Forbidden; Not_found; Precondition_failed; Range_not_satisfiable;
      Request_timeout; Too_many_requests; Internal_server_error;
      Not_implemented; Service_unavailable;
    ]

(* Timestamps across +-1e12 s: fractional, pre-1970, and years from
   -29719 to 33658, so "%04d" meets signed and five-digit years.  The
   first seconds of years 0 and 10000 get a share of their own. *)
let gen_timestamp =
  QCheck.Gen.(
    frequency
      [
        (3, float_range (-1e12) 1e12);
        (1, float_range (-1e9) 4e9);
        ( 1,
          map2 ( +. )
            (oneofl [ -62167219200.; 253402300800. ])
            (float_range (-1e8) 1e8) );
      ])

let gen_render_case =
  let open QCheck.Gen in
  let text n = string_size ~gen:printable (int_range 0 n) in
  let* status = oneofl all_statuses in
  let* version = opt (oneofl [ "HTTP/1.0"; "HTTP/1.1" ]) in
  let* server = opt (text 40) in
  let* content_type = opt (text 24) in
  let* content_length = opt (int_bound (1 lsl 40)) in
  let* keep_alive = opt bool in
  let* date = opt gen_timestamp in
  let* last_modified = opt gen_timestamp in
  let* extra = list_size (int_range 0 3) (pair (text 12) (text 24)) in
  let* align = opt (int_range 1 64) in
  let* mtime = gen_timestamp in
  let* suffix = opt (oneof [ oneofl [ ""; "-gz"; "-br" ]; text 8 ]) in
  let* size = int_bound (1 lsl 40) in
  let* off = int_bound (1 lsl 40) in
  let+ len = int_range 0 (1 lsl 40) in
  {
    status; version; server; content_type; content_length; keep_alive;
    date; last_modified; extra; align; mtime; suffix; size; off; len;
  }

let print_render_case c =
  let open QCheck.Print in
  String.concat "\n"
    [
      "status " ^ int (Status.code c.status);
      "version " ^ option string c.version;
      "server " ^ option string c.server;
      "content_type " ^ option string c.content_type;
      "content_length " ^ option int c.content_length;
      "keep_alive " ^ option bool c.keep_alive;
      "date " ^ option float c.date;
      "last_modified " ^ option float c.last_modified;
      "extra " ^ list (pair string string) c.extra;
      "align " ^ option int c.align;
      "mtime " ^ float c.mtime;
      "suffix " ^ option string c.suffix;
      Printf.sprintf "size %d off %d len %d" c.size c.off c.len;
    ]

let prop_byte_identity =
  Helpers.qcheck_case ~count:10_000
    ~name:"renderers match the Printf model byte for byte"
    (QCheck.make ~print:print_render_case gen_render_case)
    (fun c ->
      let same what got model =
        got = model
        || QCheck.Test.fail_reportf "%s: %S, model %S" what got model
      in
      let dates = List.filter_map Fun.id [ c.date; c.last_modified ] in
      let header keep_alive =
        Response.header ?version:c.version ?server:c.server
          ?content_type:c.content_type ?content_length:c.content_length
          ?keep_alive ?date:c.date ?last_modified:c.last_modified
          ~extra:c.extra ?align:c.align ~status:c.status ()
      and model keep_alive =
        Http_ref.header ?version:c.version ?server:c.server
          ?content_type:c.content_type ?content_length:c.content_length
          ?keep_alive ?date:c.date ?last_modified:c.last_modified
          ~extra:c.extra ?align:c.align ~status:c.status ()
      in
      let pair =
        Response.header_pair ?version:c.version ?server:c.server
          ?content_type:c.content_type ?content_length:c.content_length
          ?date:c.date ?last_modified:c.last_modified ~extra:c.extra
          ?align:c.align ~status:c.status ()
      and model_pair =
        Http_ref.header_pair ?version:c.version ?server:c.server
          ?content_type:c.content_type ?content_length:c.content_length
          ?date:c.date ?last_modified:c.last_modified ~extra:c.extra
          ?align:c.align ~status:c.status ()
      in
      List.for_all
        (fun ts -> same "date" (Http.Http_date.format ts) (Http_ref.date ts))
        (c.mtime :: dates)
      && same "status line"
           (Status.line_fragment c.status)
           (Http_ref.line_fragment c.status)
      && same "header" (header c.keep_alive) (model c.keep_alive)
      && same "keep-alive of pair" (fst pair) (fst model_pair)
      && same "close of pair" (snd pair) (snd model_pair)
      && same "error body"
           (Response.error_body c.status)
           (Http_ref.error_body c.status)
      && same "etag"
           (Http.Etag.make ?suffix:c.suffix ~mtime:c.mtime ~size:c.size ())
           (Http_ref.etag ?suffix:c.suffix ~mtime:c.mtime ~size:c.size ())
      && same "content range"
           (Http.Range.content_range ~off:c.off ~len:c.len ~size:c.size)
           (Http_ref.content_range ~off:c.off ~len:c.len ~size:c.size)
      && same "unsatisfied range"
           (Http.Range.content_range_unsatisfied ~size:c.size)
           (Http_ref.content_range_unsatisfied ~size:c.size))

(* ------------------------------------------------------------------ *)
(* The one-pass request parser against the parser it replaced          *)
(* ------------------------------------------------------------------ *)

module R = Http.Request
module Ref = Request_ref

(* Request heads built from parts chosen to reach every branch: odd
   methods and versions, runs of spaces, escapes and queries in the
   target, mixed-case names, colon-less lines, blank-padded values,
   LF or CRLF per line, a missing terminator, a second pipelined head,
   and (for [big]) a value that takes the head past 16 KB. *)
let head_gen ~big =
  let open QCheck.Gen in
  let pick l = oneofl l in
  let eol = pick [ "\r\n"; "\n" ] in
  let target =
    map
      (fun segs -> "/" ^ String.concat "" segs)
      (list_size (int_range 0 5)
         (pick
            [ "a"; "b/"; "/"; "./"; "../"; "%41"; "%2F"; "%zz"; "%4"; "?";
              "q=1&r"; "%"; "index.html"; "."; ".."; "~x"; "%20" ]))
  in
  let request_line =
    map4
      (fun meth sp1 target (sp2, version) -> meth ^ sp1 ^ target ^ sp2 ^ version)
      (pick [ "GET"; "HEAD"; "POST"; "get"; "OPTIONS"; ""; "GE T" ])
      (pick [ " "; "  " ])
      (frequency [ (9, target); (1, pick [ ""; "x"; "*" ]) ])
      (pick
         [ (" ", "HTTP/1.1"); (" ", "HTTP/1.0"); (" ", "HTTP/0.9");
           (" ", "HTTP/2.0"); (" ", "HTTP/1.x"); (" ", "http/1.1");
           (" ", "HTTP/1.10"); ("  ", "HTTP/1.1"); ("", ""); (" ", "") ])
  in
  let name =
    pick
      [ "Host"; "host"; "HOST"; "Connection"; "connection"; "CONNECTION";
        "Accept-Encoding"; "If-None-Match"; "if-none-match"; "Range";
        "X-Thing"; ""; "Bad Name"; "If-Modified-Since" ]
  in
  let value =
    pick
      [ "close"; "keep-alive"; "Keep-Alive"; "CLOSE"; "gzip"; "  x  ";
        "\t v \t"; "a\rb"; ""; "\"e\""; "bytes=0-9"; "a:b" ]
  in
  let header_line =
    frequency
      [
        ( 8,
          map3
            (fun n sep v -> n ^ sep ^ v)
            name (pick [ ":"; ": "; " : "; ":   " ]) value );
        (1, pick [ "no colon here"; " "; ":x"; "\r" ]);
      ]
  in
  let one_head =
    map4
      (fun rl lines eols (term, big_value) ->
        let buf = Buffer.create 256 in
        Buffer.add_string buf rl;
        List.iteri
          (fun i l ->
            Buffer.add_string buf (List.nth eols (i mod List.length eols));
            Buffer.add_string buf l)
          (match big_value with Some v -> lines @ [ "X-Big: " ^ v ] | None -> lines);
        Buffer.add_string buf (List.hd eols);
        Buffer.add_string buf term;
        Buffer.contents buf)
      request_line
      (list_size (int_range 0 6) header_line)
      (list_size (int_range 1 3) eol)
      (pair
         (frequency [ (8, eol); (1, return "") ])
         (if big then map (fun n -> Some (String.make n 'v')) (int_range 16000 17500)
          else return None))
  in
  map2
    (fun a b -> match b with Some b -> a ^ b | None -> a)
    one_head
    (frequency [ (3, return None); (1, map Option.some (pick [ "GET / HTTP/1.1\r\n\r\n"; "junk" ])) ])

let show_result = function
  | Ref.Incomplete -> "Incomplete"
  | Ref.Bad m -> "Bad " ^ String.escaped m
  | Ref.Complete (r, n) ->
      Printf.sprintf "Complete (%s %S path=%S query=%s v=%d.%d [%s], %d)"
        (Ref.meth_to_string r.Ref.meth) r.Ref.raw_target r.Ref.path
        (match r.Ref.query with Some q -> Printf.sprintf "%S" q | None -> "-")
        (fst r.Ref.version) (snd r.Ref.version)
        (String.concat "; "
           (List.map (fun (k, v) -> Printf.sprintf "%S=%S" k v) r.Ref.headers))
        n

(* The new result in the reference's shape. *)
let as_ref = function
  | R.Incomplete -> Ref.Incomplete
  | R.Bad m -> Ref.Bad m
  | R.Complete (r, n) ->
      Ref.Complete
        ( {
            Ref.meth =
              (match r.R.meth with
              | R.Get -> Ref.Get
              | R.Head -> Ref.Head
              | R.Post -> Ref.Post
              | R.Other s -> Ref.Other s);
            raw_target = r.R.raw_target;
            path = r.R.path;
            query = r.R.query;
            version = r.R.version;
            headers =
              List.map
                (fun (k, v) -> (k, Option.value v ~default:"<none>"))
                r.R.headers;
          },
          n )

let lookups =
  [ "host"; "Host"; "HOST"; "connection"; "Connection"; "accept-encoding";
    "if-none-match"; "If-None-Match"; "range"; "x-thing"; "x-big"; "absent";
    ""; "bad name" ]

(* Everything the server reads off a head agrees with the reference. *)
let agree ~what s =
  let expect = Ref.parse s and got = R.parse s in
  if as_ref got <> expect then
    QCheck.Test.fail_reportf "%s %S:\n  reference %s\n  one-pass  %s" what s
      (show_result expect) (show_result (as_ref got));
  match (expect, got) with
  | Ref.Complete (r, _), R.Complete (r', _) ->
      List.iter
        (fun name ->
          if Ref.header r name <> R.header r' name then
            QCheck.Test.fail_reportf "%s %S: header %S differs" what s name)
        lookups;
      if Ref.keep_alive r <> R.keep_alive r' then
        QCheck.Test.fail_reportf "%s %S: keep_alive differs" what s;
      if Ref.normalize_path r.Ref.path <> R.normalize_path r'.R.path then
        QCheck.Test.fail_reportf "%s %S: normalize_path %S differs" what s
          r.Ref.path
  | _ -> ()

(* Where a head is cut.  A head over 16 KB costs O(n) per cut, so it
   is cut at every byte only where the answer can change (its first
   bytes, around the 16 KB limit, its last bytes), and at every 61st
   byte elsewhere. *)
let cut_here n k =
  n <= 4096 || k < 512 || abs (k - 16384) < 512 || n - k < 512 || k mod 61 = 0

(* The head cut at every byte: each prefix parses as the reference's
   does; a prefix that is [Incomplete] resumes, over the whole string,
   from where its scan stopped; and the head parsed in place inside a
   larger buffer reads nothing past its bytes. *)
let prop_parser_agrees s =
  let n = String.length s in
  for k = 0 to n do
    if cut_here n k then begin
      let prefix = String.sub s 0 k in
      agree ~what:"prefix" prefix;
      if Ref.parse prefix = Ref.Incomplete then begin
        let resumed =
          R.parse_sub s ~pos:0 ~len:n ~from:(Stdlib.max 0 (k - 2))
        in
        if as_ref resumed <> Ref.parse s then
          QCheck.Test.fail_reportf "resumed at %d of %S: %s, reference %s" k s
            (show_result (as_ref resumed))
            (show_result (Ref.parse s))
      end
    end
  done;
  let framed = "\n\nGET" ^ s ^ "\n\n\r\n" in
  if as_ref (R.parse_sub framed ~pos:5 ~len:n ~from:0) <> Ref.parse s then
    QCheck.Test.fail_reportf "in place: %S" s;
  true

let head_arb ~big =
  QCheck.make ~print:(fun s -> Printf.sprintf "%S" s) (head_gen ~big)

(* Paths the normalizer sees: the parser's own output and odd shapes. *)
let prop_normalize_agrees path =
  R.normalize_path path = Ref.normalize_path path
  && R.decode_target path = Ref.decode_target path

let path_arb =
  QCheck.make ~print:(fun s -> Printf.sprintf "%S" s)
    QCheck.Gen.(
      map (String.concat "")
        (list_size (int_range 0 8)
           (oneofl [ "/"; "a"; "."; ".."; "%41"; "?"; "bc"; "//"; "%" ])))

(* A scan told to start past the bytes it has finds no end and stops;
   bytes past [pos + len] are never read. *)
let test_parse_sub_bounds () =
  let head = "GET / HTTP/1.0\r\n\r\n" in
  let n = String.length head in
  Alcotest.(check bool) "start past the end" true
    (R.parse_sub head ~pos:0 ~len:3 ~from:10 = R.Incomplete);
  Alcotest.(check bool) "terminator just past len" true
    (R.parse_sub head ~pos:0 ~len:(n - 1) ~from:0 = R.Incomplete);
  match R.parse_sub ("xx" ^ head ^ "GET") ~pos:2 ~len:n ~from:0 with
  | R.Complete (r, used) ->
      Alcotest.(check int) "consumed, relative to pos" n used;
      Alcotest.(check string) "path" "/" r.R.path
  | _ -> Alcotest.fail "expected a complete head"

(* The four cached variants, rendered in one pass, are the two pairs
   [header_pair] renders, byte for byte: the 200's with its entity
   fields and the 304's without. *)
let prop_cached_is_two_pairs =
  Helpers.qcheck_case ~count:2000
    ~name:"cached headers are header_pair's, byte for byte"
    (QCheck.make ~print:print_render_case gen_render_case)
    (fun c ->
      let content_type = Option.value c.content_type ~default:"text/html"
      and content_length = Option.value c.content_length ~default:0
      and date = Option.value c.date ~default:c.mtime
      and last_modified = Option.value c.last_modified ~default:c.mtime in
      let not_modified_extra =
        match c.extra with [] -> [] | _ :: rest -> rest
      in
      let h =
        Response.cached ?version:c.version ?server:c.server ?align:c.align
          ~content_type ~content_length ~date ~last_modified
          ~ok_extra:c.extra ~not_modified_extra ()
      in
      let ok_keep, ok_close =
        Response.header_pair ?version:c.version ?server:c.server
          ~content_type ~content_length ~date ~last_modified ~extra:c.extra
          ?align:c.align ~status:Status.Ok ()
      and nm_keep, nm_close =
        Response.header_pair ?version:c.version ?server:c.server ~date
          ~last_modified ~extra:not_modified_extra ?align:c.align
          ~status:Status.Not_modified ()
      in
      let lengths =
        [
          h.Response.ok_keep; h.Response.ok_close;
          h.Response.not_modified_keep; h.Response.not_modified_close;
        ]
      in
      let rec slices off = function
        | [] -> []
        | n :: rest -> String.sub h.Response.text off n :: slices (off + n) rest
      in
      List.fold_left ( + ) 0 lengths = String.length h.Response.text
      && slices 0 lengths = [ ok_keep; ok_close; nm_keep; nm_close ]
      || QCheck.Test.fail_reportf "cached %S" h.Response.text)

(* Paths over an alphabet of dots, slashes and the letters of the
   known extensions in either case. *)
let prop_mime_agrees =
  let gen =
    QCheck.Gen.(
      string_size
        ~gen:(oneofl (List.of_seq (String.to_seq "./hHtTmMlLgGiIfFzZpPxXsSjJa")))
        (int_range 0 14))
  in
  Helpers.qcheck_case ~count:5000 ~name:"Mime.of_path agrees with the reference"
    (QCheck.make ~print:(Printf.sprintf "%S") gen)
    (fun path -> Http.Mime.of_path path = Http_ref.mime_of_path path)

let suite =
  [
    Alcotest.test_case "parse_sub bounds" `Quick test_parse_sub_bounds;
    Helpers.qcheck_case ~count:400 ~name:"parser agrees with the reference"
      (head_arb ~big:false) prop_parser_agrees;
    Helpers.qcheck_case ~count:4
      ~name:"parser agrees with the reference (heads over 16 KB)"
      (head_arb ~big:true) prop_parser_agrees;
    Helpers.qcheck_case ~count:1000 ~name:"normalize_path agrees with the reference"
      path_arb prop_normalize_agrees;
    Alcotest.test_case "status codes" `Quick test_status_codes;
    Alcotest.test_case "mime mapping" `Quick test_mime;
    Alcotest.test_case "date epoch" `Quick test_date_epoch;
    Alcotest.test_case "date rfc example" `Quick test_date_known;
    Alcotest.test_case "civil calendar" `Quick test_date_civil;
    Alcotest.test_case "parse simple GET" `Quick test_parse_simple_get;
    Alcotest.test_case "parse headers" `Quick test_parse_headers;
    Alcotest.test_case "keep-alive defaults" `Quick test_keep_alive_defaults;
    Alcotest.test_case "query and percent-decode" `Quick test_parse_query_and_decode;
    Alcotest.test_case "incremental parse" `Quick test_parse_incremental;
    Alcotest.test_case "pipelined consumed count" `Quick test_parse_pipelined_consumed;
    Alcotest.test_case "LF-only line endings" `Quick test_parse_lf_only;
    Alcotest.test_case "HTTP/0.9" `Quick test_parse_http09;
    Alcotest.test_case "malformed requests" `Quick test_parse_bad;
    Alcotest.test_case "HEAD and POST" `Quick test_head_and_post;
    Alcotest.test_case "path normalization" `Quick test_normalize_path;
    prop_parser_never_raises;
    prop_roundtrip_simple;
    Alcotest.test_case "response basics" `Quick test_response_basic;
    Alcotest.test_case "response 32-byte alignment" `Quick test_response_alignment;
    Alcotest.test_case "alignment across lengths" `Quick
      test_response_alignment_varies_fields;
    Alcotest.test_case "keep-alive header" `Quick test_response_keep_alive_header;
    Alcotest.test_case "header framing" `Quick test_response_parses_back;
    Alcotest.test_case "error body" `Quick test_error_body;
    prop_alignment;
    prop_byte_identity;
    prop_cached_is_two_pairs;
    prop_mime_agrees;
  ]
