(* The request parser as it stood before the one-pass rewrite, kept
   verbatim as the reference the differential property in [Test_http]
   checks the live parser against.  Not used by the server. *)

type meth = Get | Head | Post | Other of string

let meth_to_string = function
  | Get -> "GET"
  | Head -> "HEAD"
  | Post -> "POST"
  | Other s -> s

type t = {
  meth : meth;
  raw_target : string;
  path : string;
  query : string option;
  version : int * int;
  headers : (string * string) list;
}

type result = Complete of t * int | Incomplete | Bad of string

let header t name =
  List.assoc_opt (String.lowercase_ascii name) t.headers

let keep_alive t =
  match header t "connection" with
  | Some v when String.lowercase_ascii v = "close" -> false
  | Some v when String.lowercase_ascii v = "keep-alive" -> true
  | _ -> t.version >= (1, 1)

let meth_of_string = function
  | "GET" -> Get
  | "HEAD" -> Head
  | "POST" -> Post
  | s -> Other s

let hex_value c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let percent_decode s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec loop i =
    if i >= n then Buffer.contents buf
    else if s.[i] = '%' && i + 2 < n then begin
      match (hex_value s.[i + 1], hex_value s.[i + 2]) with
      | Some hi, Some lo ->
          Buffer.add_char buf (Char.chr ((hi * 16) + lo));
          loop (i + 3)
      | _ ->
          Buffer.add_char buf s.[i];
          loop (i + 1)
    end
    else begin
      Buffer.add_char buf s.[i];
      loop (i + 1)
    end
  in
  loop 0

let decode_target target =
  match String.index_opt target '?' with
  | None -> (percent_decode target, None)
  | Some q ->
      let path = String.sub target 0 q in
      let query = String.sub target (q + 1) (String.length target - q - 1) in
      (percent_decode path, Some query)

let normalize_path path =
  if String.length path = 0 || path.[0] <> '/' then None
  else begin
    let segments = String.split_on_char '/' path in
    let rec resolve acc = function
      | [] -> Some (List.rev acc)
      | "" :: rest | "." :: rest -> resolve acc rest
      | ".." :: rest -> (
          match acc with [] -> None | _ :: up -> resolve up rest)
      | seg :: rest -> resolve (seg :: acc) rest
    in
    match resolve [] segments with
    | None -> None
    | Some [] -> Some "/"
    | Some segs -> Some ("/" ^ String.concat "/" segs)
  end

let parse_version s =
  if String.length s = 8 && String.sub s 0 5 = "HTTP/" && s.[6] = '.' then
    match (s.[5], s.[7]) with
    | ('0' .. '9' as major), ('0' .. '9' as minor) ->
        Some (Char.code major - Char.code '0', Char.code minor - Char.code '0')
    | _ -> None
  else None

(* Find the end of the request head: CRLFCRLF or LFLF.  Returns the
   offset one past the blank line. *)
let head_end buf =
  let n = String.length buf in
  let rec scan i =
    if i >= n then None
    else if buf.[i] = '\n' then begin
      if i + 1 < n && buf.[i + 1] = '\n' then Some (i + 2)
      else if i + 2 < n && buf.[i + 1] = '\r' && buf.[i + 2] = '\n' then
        Some (i + 3)
      else scan (i + 1)
    end
    else scan (i + 1)
  in
  scan 0

let strip_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

let parse_header_line line =
  match String.index_opt line ':' with
  | None -> None
  | Some colon ->
      let name = String.lowercase_ascii (String.sub line 0 colon) in
      let value =
        String.trim
          (String.sub line (colon + 1) (String.length line - colon - 1))
      in
      if name = "" then None else Some (name, value)

let parse buf =
  match head_end buf with
  | None ->
      (* An over-long head with no terminator is an attack, not a slow
         client. *)
      if String.length buf > 16384 then Bad "request head too large"
      else Incomplete
  | Some consumed -> (
      let head = String.sub buf 0 consumed in
      let lines = String.split_on_char '\n' head in
      let lines = List.map strip_cr lines in
      match lines with
      | [] -> Bad "empty request"
      | request_line :: rest -> (
          match String.split_on_char ' ' request_line with
          | [ meth; target; version ] -> (
              match parse_version version with
              | None -> Bad ("bad version: " ^ version)
              | Some version ->
                  if target = "" || target.[0] <> '/' then
                    Bad ("bad target: " ^ target)
                  else begin
                    let headers = List.filter_map parse_header_line rest in
                    let path, query = decode_target target in
                    Complete
                      ( {
                          meth = meth_of_string meth;
                          raw_target = target;
                          path;
                          query;
                          version;
                          headers;
                        },
                        consumed )
                  end)
          | [ meth; target ] ->
              (* HTTP/0.9 simple request *)
              if target = "" || target.[0] <> '/' then
                Bad ("bad target: " ^ target)
              else begin
                let path, query = decode_target target in
                Complete
                  ( {
                      meth = meth_of_string meth;
                      raw_target = target;
                      path;
                      query;
                      version = (0, 9);
                      headers = [];
                    },
                    consumed )
              end
          | _ -> Bad ("bad request line: " ^ request_line)))
