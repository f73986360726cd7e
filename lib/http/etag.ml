type t = { weak : bool; opaque : string }

(* The file cache validates entries by (mtime, size); the ETag is that
   validation key rendered as a strong validator, so a cache hit, its
   Last-Modified, and its ETag can never disagree.  Whole seconds only —
   HTTP dates have one-second granularity and the ETag must not be
   stronger than the validator backing it.  Variant representations
   (gzip) append a suffix so each representation has its own tag, as
   RFC 9110 §8.8.3 requires. *)
let make ?(suffix = "") ~mtime ~size () =
  let mtime = Digits.hex (int_of_float (floor mtime)) in
  String.concat "" [ "\""; mtime; "-"; Digits.hex size; suffix; "\"" ]

let render t = if t.weak then "W/\"" ^ t.opaque ^ "\"" else "\"" ^ t.opaque ^ "\""

let parse s =
  let s = String.trim s in
  let weak = String.length s >= 2 && s.[0] = 'W' && s.[1] = '/' in
  let body = if weak then String.sub s 2 (String.length s - 2) else s in
  let n = String.length body in
  if n >= 2 && body.[0] = '"' && body.[n - 1] = '"' then
    let opaque = String.sub body 1 (n - 2) in
    if String.contains opaque '"' then None else Some { weak; opaque }
  else None

let strong_eq a b = (not a.weak) && (not b.weak) && String.equal a.opaque b.opaque
let weak_eq a b = String.equal a.opaque b.opaque

(* Match a current validator against an If-Match / If-None-Match field
   value: "*", or a comma-separated entity-tag list.  Commas are legal
   inside an opaque-tag, so members are scanned quote-aware rather than
   split.  Malformed members end the scan (matches found so far still
   count); [strong] selects the strong comparison (If-Match) over the
   weak one (If-None-Match, If-Range uses [strong_eq] directly). *)
let list_matches ~strong value ~current =
  let n = String.length value in
  let rec skip_ws i =
    if i < n && (value.[i] = ' ' || value.[i] = '\t') then skip_ws (i + 1)
    else i
  in
  let rec member i matched =
    let i = skip_ws i in
    if i >= n then matched
    else if value.[i] = '*' then true
    else begin
      let weak = i + 1 < n && value.[i] = 'W' && value.[i + 1] = '/' in
      let i = if weak then i + 2 else i in
      if i < n && value.[i] = '"' then begin
        match String.index_from_opt value (i + 1) '"' with
        | None -> matched
        | Some close ->
            let tag = { weak; opaque = String.sub value (i + 1) (close - i - 1) } in
            let m =
              if strong then strong_eq tag current else weak_eq tag current
            in
            let j = skip_ws (close + 1) in
            if j < n && value.[j] = ',' then member (j + 1) (matched || m)
            else matched || m
      end
      else matched
    end
  in
  member 0 false
