(* Metric values and the result line.  Numbers are printed with every
   digit they were measured with. *)

type metric = { name : string; value : float; unit_ : string; note : string }

(* A value that could not be measured (an empty slice, a zero
   denominator) reads 0 rather than NaN, which JSON cannot carry. *)
let m ?(note = "") name unit_ value =
  { name; value = (if Float.is_finite value then value else 0.); unit_; note }

let num v = Printf.sprintf "%.17g" v

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string x.name)
             (num x.value) (json_string x.unit_))
         ms)
  ^ "}"

(* The last line of standard output. *)
let result_line ~correct ~attempted ~failed ms =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
    correct attempted failed (metrics_json ms)

let print_table ms =
  List.iter
    (fun x ->
      Printf.printf "  %-32s %14.6g %s%s\n" x.name x.value x.unit_
        (if x.note = "" then "" else "  (" ^ x.note ^ ")"))
    ms
