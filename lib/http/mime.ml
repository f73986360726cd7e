let table =
  [|
    ("html", "text/html");
    ("htm", "text/html");
    ("txt", "text/plain");
    ("css", "text/css");
    ("gif", "image/gif");
    ("jpg", "image/jpeg");
    ("jpeg", "image/jpeg");
    ("png", "image/png");
    ("ps", "application/postscript");
    ("pdf", "application/pdf");
    ("gz", "application/gzip");
    ("tar", "application/x-tar");
    ("zip", "application/zip");
    ("mpg", "video/mpeg");
    ("mpeg", "video/mpeg");
    ("au", "audio/basic");
    ("wav", "audio/x-wav");
    ("js", "text/javascript");
    ("xml", "text/xml");
  |]

let default = "application/octet-stream"

(* The helpers below take every value they use as an argument, so no
   closure is made: [of_path] allocates nothing. *)

(* Whether [path] from [off + i] on matches [ext] from [i] on, ASCII
   case aside; [path] has exactly [ext]'s length left at [off]. *)
let rec same_from path off ext i =
  i = String.length ext
  || Char.lowercase_ascii (String.unsafe_get path (off + i))
     = String.unsafe_get ext i
     && same_from path off ext (i + 1)

(* The last '.' after the last '/' at or before [i]; -1 if none. *)
let rec last_dot path i =
  if i < 0 then -1
  else
    match String.unsafe_get path i with
    | '.' -> i
    | '/' -> -1
    | _ -> last_dot path (i - 1)

let rec lookup path off k =
  if k = Array.length table then default
  else
    let ext, content_type = table.(k) in
    if String.length path - off = String.length ext && same_from path off ext 0
    then content_type
    else lookup path off (k + 1)

let of_path path =
  let last = String.length path - 1 in
  let d = last_dot path last in
  if d < 0 || d = last then default else lookup path (d + 1) 0
