(* Byte-range requests (RFC 9110 §14).  Parsing is strict: a Range
   field that is syntactically invalid (wrong unit, junk digits,
   last < first) must be ignored entirely — the response is the full
   200 — while a well-formed set whose every member misses the
   representation is 416. *)

type spec =
  | From of int  (* "500-" *)
  | Slice of int * int  (* "500-999", inclusive, first <= last *)
  | Suffix of int  (* "-500": final N bytes *)

type parsed = Invalid | Specs of spec list

type plan =
  | Whole
  | Single of { off : int; len : int }
  | Unsatisfiable

let is_digit = function '0' .. '9' -> true | _ -> false

let int_of_digits s =
  (* int_of_string accepts signs, underscores and hex — none of which
     are valid in a range spec. *)
  if s = "" || not (String.for_all is_digit s) then None
  else int_of_string_opt s

let parse_spec s =
  let s = String.trim s in
  match String.index_opt s '-' with
  | None -> None
  | Some dash -> (
      let first = String.trim (String.sub s 0 dash) in
      let last =
        String.trim (String.sub s (dash + 1) (String.length s - dash - 1))
      in
      match (first, last) with
      | "", "" -> None
      | "", _ -> Option.map (fun k -> Suffix k) (int_of_digits last)
      | _, "" -> Option.map (fun f -> From f) (int_of_digits first)
      | _, _ -> (
          match (int_of_digits first, int_of_digits last) with
          | Some f, Some l when f <= l -> Some (Slice (f, l))
          | _ -> None))

let parse value =
  let value = String.trim value in
  let eq_prefix = String.length value >= 6 && String.sub value 0 6 = "bytes=" in
  if not eq_prefix then Invalid
  else begin
    let rest = String.sub value 6 (String.length value - 6) in
    let parts = String.split_on_char ',' rest in
    let specs = List.map parse_spec parts in
    if List.exists Option.is_none specs || specs = [] then Invalid
    else Specs (List.filter_map Fun.id specs)
  end

(* Resolve one spec against the representation length; [None] means
   this spec does not overlap the representation. *)
let resolve spec ~size =
  match spec with
  | From f -> if f < size then Some (f, size - f) else None
  | Slice (f, l) ->
      if f >= size then None
      else
        let l = min l (size - 1) in
        Some (f, l - f + 1)
  | Suffix k ->
      if k <= 0 || size <= 0 then None
      else
        let len = min k size in
        Some (size - len, len)

(* The server's range policy: one satisfiable range is served as a 206
   body slice; a multi-range set degrades to the full body (multipart
   responses are deliberately unimplemented — see the README protocol
   matrix) unless every member is unsatisfiable, which is a 416. *)
let plan value ~size =
  match parse value with
  | Invalid -> Whole
  | Specs [ spec ] -> (
      match resolve spec ~size with
      | Some (off, len) -> Single { off; len }
      | None -> Unsatisfiable)
  | Specs specs ->
      if List.exists (fun s -> resolve s ~size <> None) specs then Whole
      else Unsatisfiable

(* "bytes first-last/complete" for the 206's Content-Range field and
   "bytes */complete" for the 416's. *)
let content_range ~off ~len ~size =
  String.concat ""
    [ "bytes "; Digits.decimal off; "-"; Digits.decimal (off + len - 1); "/";
      Digits.decimal size ]

let content_range_unsatisfied ~size = "bytes */" ^ Digits.decimal size
