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
  headers : (string * string option) list;
}

type result = Complete of t * int | Incomplete | Bad of string

(* The first [c] in s[i, stop), or [stop].  Bounded, since [s] may be a
   read buffer whose bytes past [stop] are stale. *)
let rec index_in s c i stop =
  if i >= stop || String.unsafe_get s i = c then i else index_in s c (i + 1) stop

(* s[pos, pos + String.length key) equals the lowercase [key] ignoring
   ASCII case, from offset [i] on.  Top-level, so a comparison
   allocates no closure. *)
let rec lower_from key s pos i =
  i = String.length key
  || String.unsafe_get key i
     = Char.lowercase_ascii (String.unsafe_get s (pos + i))
     && lower_from key s pos (i + 1)

(* [name] equals the lowercase [key] ignoring ASCII case, with no copy. *)
let equal_lower key name =
  String.length key = String.length name && lower_from key name 0 0

let rec lookup name = function
  | [] -> None
  | (key, value) :: rest -> if equal_lower key name then value else lookup name rest

let header t name = lookup name t.headers

let keep_alive t =
  match header t "connection" with
  | Some v when equal_lower "close" v -> false
  | Some v when equal_lower "keep-alive" v -> true
  | _ ->
      let major, minor = t.version in
      major > 1 || (major = 1 && minor >= 1)

let hex_value c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

(* s[pos, pos + len) with every valid [%XX] escape decoded; a copy made
   with one allocation when there is no escape to decode. *)
let percent_decode_sub s pos len =
  let stop = pos + len in
  if index_in s '%' pos stop = stop then String.sub s pos len
  else begin
      let buf = Bytes.create len in
      let rec go i j =
        if i >= stop then Bytes.sub_string buf 0 j
        else if s.[i] = '%' && i + 2 < stop then begin
          let hi = hex_value s.[i + 1] and lo = hex_value s.[i + 2] in
          if hi >= 0 && lo >= 0 then begin
            Bytes.set buf j (Char.chr ((hi * 16) + lo));
            go (i + 3) (j + 1)
          end
          else begin
            Bytes.set buf j s.[i];
            go (i + 1) (j + 1)
          end
        end
        else begin
          Bytes.set buf j s.[i];
          go (i + 1) (j + 1)
        end
      in
      go pos 0
  end

(* A target with no escape and no query is its own path. *)
let decode_target target =
  let n = String.length target in
  let q = index_in target '?' 0 n in
  if q < n then
    (percent_decode_sub target 0 q, Some (String.sub target (q + 1) (n - q - 1)))
  else if index_in target '%' 0 n < n then (percent_decode_sub target 0 n, None)
  else (target, None)

(* Already normal: absolute, and no empty, "." or ".." segment ("/"
   alone excepted). *)
(* The segments of [path] from [i] (the start of one, just past a '/')
   are all non-empty and neither "." nor "..". *)
let rec normal_from path i =
  let n = String.length path in
  i < n
  &&
  let j = index_in path '/' i n in
  let len = j - i in
  len > 0
  && (not (len = 1 && path.[i] = '.'))
  && (not (len = 2 && path.[i] = '.' && path.[i + 1] = '.'))
  && (j = n || normal_from path (j + 1))

let is_normal path =
  let n = String.length path in
  n > 0 && path.[0] = '/' && (n = 1 || normal_from path 1)

let normalize_path path =
  if String.length path = 0 || path.[0] <> '/' then None
  else if is_normal path then Some path
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

(* The versions nearly every request carries, shared. *)
let v09 = (0, 9)
let some_v10 = Some (1, 0)
let some_v11 = Some (1, 1)

let digit c = Char.code c - Char.code '0'
let is_digit c = c >= '0' && c <= '9'

let version_at s pos len =
  if
    len = 8
    && String.unsafe_get s pos = 'H'
    && String.unsafe_get s (pos + 1) = 'T'
    && String.unsafe_get s (pos + 2) = 'T'
    && String.unsafe_get s (pos + 3) = 'P'
    && String.unsafe_get s (pos + 4) = '/'
    && String.unsafe_get s (pos + 6) = '.'
    && is_digit s.[pos + 5]
    && is_digit s.[pos + 7]
  then
    match (digit s.[pos + 5], digit s.[pos + 7]) with
    | 1, 1 -> some_v11
    | 1, 0 -> some_v10
    | major, minor -> Some (major, minor)
  else None

let rec same_from lit s pos i =
  i = String.length lit
  || String.unsafe_get s (pos + i) = String.unsafe_get lit i
     && same_from lit s pos (i + 1)

let is_sub s pos len lit = len = String.length lit && same_from lit s pos 0

let meth_at s pos len =
  if is_sub s pos len "GET" then Get
  else if is_sub s pos len "HEAD" then Head
  else if is_sub s pos len "POST" then Post
  else Other (String.sub s pos len)

(* Header names are lowercased; the common ones come from this table
   rather than from a fresh copy. *)
let known_names =
  [|
    "host"; "user-agent"; "accept"; "accept-encoding"; "accept-language";
    "connection"; "if-none-match"; "if-match"; "if-modified-since";
    "if-unmodified-since"; "range"; "if-range"; "cache-control"; "cookie";
    "referer"; "content-length"; "content-type";
  |]

let name_matches known s pos len =
  len = String.length known && lower_from known s pos 0

let lowercase_sub s pos len =
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.unsafe_set b i (Char.lowercase_ascii (String.unsafe_get s (pos + i)))
  done;
  Bytes.unsafe_to_string b

let rec name_from k s pos len =
  if k = Array.length known_names then lowercase_sub s pos len
  else if name_matches known_names.(k) s pos len then known_names.(k)
  else name_from (k + 1) s pos len

let name_at s pos len = name_from 0 s pos len

(* String.trim's blanks. *)
let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* The header on line s[pos, stop) (its CR already stripped), consed
   onto [acc]; a line without a colon, or with an empty name, adds
   nothing. *)
let add_header s pos stop acc =
  let colon = index_in s ':' pos stop in
  if colon = stop || colon = pos then acc
  else begin
    let a = ref (colon + 1) and b = ref stop in
    while !a < !b && is_blank (String.unsafe_get s !a) do incr a done;
    while !b > !a && is_blank (String.unsafe_get s (!b - 1)) do decr b done;
    (name_at s pos (colon - pos), Some (String.sub s !a (!b - !a))) :: acc
  end

(* One past the blank line that ends the head in s[pos, pos + len):
   CRLFCRLF or LFLF.  The scan starts [from] bytes in; [-1] when there
   is no end yet.  A scan that found none decided every offset but the
   last two, so the next may start at [len - 2]. *)
let rec scan_end s i stop =
  let i = index_in s '\n' i stop in
  if i >= stop then -1
  else if i + 1 < stop && String.unsafe_get s (i + 1) = '\n' then i + 2
  else if
    i + 2 < stop
    && String.unsafe_get s (i + 1) = '\r'
    && String.unsafe_get s (i + 2) = '\n'
  then i + 3
  else scan_end s (i + 1) stop

let head_end s ~pos ~len ~from =
  match scan_end s (pos + from) (pos + len) with -1 -> -1 | e -> e - pos

(* The end of the line starting at [i] (its LF), before [stop]. *)
let line_end s i stop = index_in s '\n' i stop

(* A line's content end: one trailing CR stripped. *)
let strip_cr s start e = if e > start && s.[e - 1] = '\r' then e - 1 else e

let rec headers_from s i stop acc =
  if i >= stop then List.rev acc
  else
    let e = line_end s i stop in
    headers_from s (e + 1) stop (add_header s i (strip_cr s i e) acc)

let target_ok s pos len = len > 0 && s.[pos] = '/'

let request ~meth ~s ~tpos ~tlen ~version ~headers ~consumed =
  let raw_target = String.sub s tpos tlen in
  let path, query = decode_target raw_target in
  Complete ({ meth; raw_target; path; query; version; headers }, consumed)

(* The head s[pos, pos + consumed) in one pass: the request line split
   at its spaces in place, then each header line read where it lies. *)
let parse_head s ~pos ~consumed =
  let stop = pos + consumed in
  let e = line_end s pos stop in
  let le = strip_cr s pos e in
  let sp1 = index_in s ' ' pos le in
  let sp2 = if sp1 = le then le else index_in s ' ' (sp1 + 1) le in
  let sp3 = if sp2 = le then le else index_in s ' ' (sp2 + 1) le in
  if sp1 = le || sp3 < le then
    Bad ("bad request line: " ^ String.sub s pos (le - pos))
  else if sp2 = le then begin
    (* HTTP/0.9 simple request *)
    let tpos = sp1 + 1 in
    let tlen = le - tpos in
    if not (target_ok s tpos tlen) then
      Bad ("bad target: " ^ String.sub s tpos tlen)
    else
      request ~meth:(meth_at s pos (sp1 - pos)) ~s ~tpos ~tlen ~version:v09
        ~headers:[] ~consumed
  end
  else begin
    let tpos = sp1 + 1 and tlen = sp2 - sp1 - 1 in
    let vpos = sp2 + 1 in
    match version_at s vpos (le - vpos) with
    | None -> Bad ("bad version: " ^ String.sub s vpos (le - vpos))
    | Some version ->
        if not (target_ok s tpos tlen) then
          Bad ("bad target: " ^ String.sub s tpos tlen)
        else
          request ~meth:(meth_at s pos (sp1 - pos)) ~s ~tpos ~tlen ~version
            ~headers:(headers_from s (e + 1) stop [])
            ~consumed
  end

(* An over-long head with no terminator is an attack, not a slow
   client. *)
let max_head = 16384

let parse_sub s ~pos ~len ~from =
  match head_end s ~pos ~len ~from with
  | -1 -> if len > max_head then Bad "request head too large" else Incomplete
  | consumed -> parse_head s ~pos ~consumed

let parse s = parse_sub s ~pos:0 ~len:(String.length s) ~from:0
