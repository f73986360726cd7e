(* A reference model of the header renderers in [Http], written the
   plain way: Printf for every number and date, and alignment by
   rendering the whole header a second time with a padded Server value.
   The byte-identity property in test_http.ml holds the real renderers
   to this model on random inputs. *)

open Http

let weekday_names = [| "Sun"; "Mon"; "Tue"; "Wed"; "Thu"; "Fri"; "Sat" |]

let month_names =
  [| "Jan"; "Feb"; "Mar"; "Apr"; "May"; "Jun";
     "Jul"; "Aug"; "Sep"; "Oct"; "Nov"; "Dec" |]

let split_timestamp ts =
  let total = int_of_float (floor ts) in
  let days = if total >= 0 then total / 86400 else (total - 86399) / 86400 in
  let secs = total - (days * 86400) in
  let year, month, day = Http_date.civil_of_days days in
  let hh = secs / 3600 in
  let mm = secs mod 3600 / 60 in
  let ss = secs mod 60 in
  (days, year, month, day, hh, mm, ss)

let date ts =
  let days, year, month, day, hh, mm, ss = split_timestamp ts in
  Printf.sprintf "%s, %02d %s %04d %02d:%02d:%02d GMT"
    weekday_names.(Http_date.weekday_of_days days)
    day
    month_names.(month - 1)
    year hh mm ss

let line_fragment t = Printf.sprintf "%d %s" (Status.code t) (Status.reason t)

let render ~version ~server ~content_type ~content_length ~keep_alive ~date:d
    ~last_modified ~extra ~status =
  let buf = Buffer.create 256 in
  Buffer.add_string buf version;
  Buffer.add_char buf ' ';
  Buffer.add_string buf (line_fragment status);
  Buffer.add_string buf "\r\n";
  Buffer.add_string buf "Server: ";
  Buffer.add_string buf server;
  Buffer.add_string buf "\r\n";
  (match d with
  | Some d ->
      Buffer.add_string buf "Date: ";
      Buffer.add_string buf (date d);
      Buffer.add_string buf "\r\n"
  | None -> ());
  (match last_modified with
  | Some d ->
      Buffer.add_string buf "Last-Modified: ";
      Buffer.add_string buf (date d);
      Buffer.add_string buf "\r\n"
  | None -> ());
  (match content_type with
  | Some ct ->
      Buffer.add_string buf "Content-Type: ";
      Buffer.add_string buf ct;
      Buffer.add_string buf "\r\n"
  | None -> ());
  (match content_length with
  | Some len ->
      Buffer.add_string buf "Content-Length: ";
      Buffer.add_string buf (string_of_int len);
      Buffer.add_string buf "\r\n"
  | None -> ());
  (match keep_alive with
  | Some true -> Buffer.add_string buf "Connection: keep-alive\r\n"
  | Some false -> Buffer.add_string buf "Connection: close\r\n"
  | None -> ());
  List.iter
    (fun (name, value) ->
      Buffer.add_string buf name;
      Buffer.add_string buf ": ";
      Buffer.add_string buf value;
      Buffer.add_string buf "\r\n")
    extra;
  Buffer.add_string buf "\r\n";
  Buffer.contents buf

let header ?(version = "HTTP/1.0") ?(server = Response.default_server)
    ?content_type ?content_length ?keep_alive ?date ?last_modified
    ?(extra = []) ?align ~status () =
  let base =
    render ~version ~server ~content_type ~content_length ~keep_alive ~date
      ~last_modified ~extra ~status
  in
  match align with
  | None -> base
  | Some a ->
      if a <= 0 then invalid_arg "Response.header: align <= 0";
      let remainder = String.length base mod a in
      if remainder = 0 then base
      else begin
        let padding = String.make (a - remainder) ' ' in
        render ~version ~server:(server ^ padding) ~content_type
          ~content_length ~keep_alive ~date ~last_modified ~extra ~status
      end

let header_pair ?version ?server ?content_type ?content_length ?date
    ?last_modified ?extra ?align ~status () =
  let render keep_alive =
    header ?version ?server ?content_type ?content_length ~keep_alive ?date
      ?last_modified ?extra ?align ~status ()
  in
  (render true, render false)

let error_body status =
  Printf.sprintf
    "<html><head><title>%s</title></head><body><h1>%s</h1></body></html>\n"
    (line_fragment status) (line_fragment status)

let etag ?(suffix = "") ~mtime ~size () =
  Printf.sprintf "\"%x-%x%s\"" (int_of_float (floor mtime)) size suffix

let content_range ~off ~len ~size =
  Printf.sprintf "bytes %d-%d/%d" off (off + len - 1) size

let content_range_unsatisfied ~size = Printf.sprintf "bytes */%d" size

(* Content types the plain way: the extension cut out and lowercased,
   then looked up in an association list. *)
let mime_table =
  [
    ("html", "text/html"); ("htm", "text/html"); ("txt", "text/plain");
    ("css", "text/css"); ("gif", "image/gif"); ("jpg", "image/jpeg");
    ("jpeg", "image/jpeg"); ("png", "image/png");
    ("ps", "application/postscript"); ("pdf", "application/pdf");
    ("gz", "application/gzip"); ("tar", "application/x-tar");
    ("zip", "application/zip"); ("mpg", "video/mpeg");
    ("mpeg", "video/mpeg"); ("au", "audio/basic"); ("wav", "audio/x-wav");
    ("js", "text/javascript"); ("xml", "text/xml");
  ]

let mime_of_path path =
  let ext =
    match String.rindex_opt path '.' with
    | None -> None
    | Some dot ->
        let after_slash =
          match String.rindex_opt path '/' with
          | Some slash -> dot > slash
          | None -> true
        in
        if after_slash && dot < String.length path - 1 then
          Some
            (String.lowercase_ascii
               (String.sub path (dot + 1) (String.length path - dot - 1)))
        else None
  in
  match Option.bind ext (fun e -> List.assoc_opt e mime_table) with
  | Some ct -> ct
  | None -> "application/octet-stream"
