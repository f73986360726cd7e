(* Prometheus text exposition (format 0.0.4) over a registry walk, and
   a strict parser/validator for it.  Dependency-free on both sides so
   the server, the tests and the CI lint all share one notion of
   "valid exposition". *)

(* Cumulative bucket ladder (seconds).  Fixed across scrapes — a
   histogram whose log-bucket layout grows must still expose the same
   [le] series every time, or Prometheus rate() breaks. *)
let le_edges =
  [
    0.0001; 0.00025; 0.0005; 0.001; 0.0025; 0.005; 0.01; 0.025; 0.05; 0.1;
    0.25; 0.5; 1.0; 2.5; 5.0; 10.0;
  ]

let escape_help s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let escape_label_value s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let float_str f =
  if not (Float.is_finite f) then (if f > 0. then "+Inf" else "0")
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let label_str labels =
  match labels with
  | [] -> ""
  | ls ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
             ls)
      ^ "}"

let key name labels = name ^ label_str labels

let type_of_value = function
  | Registry.Counter _ -> "counter"
  | Registry.Gauge _ -> "gauge"
  | Registry.Hist _ -> "histogram"
  | Registry.Info -> "gauge"

(* [samples] comes from [Registry.collect]: sorted by (name, labels),
   so series of one family are already contiguous. *)
let render samples =
  let b = Buffer.create 4096 in
  let last_name = ref "" in
  let line name labels v =
    Buffer.add_string b (Printf.sprintf "%s %s\n" (key name labels) v)
  in
  List.iter
    (fun (s : Registry.sample) ->
      let name = s.Registry.name and labels = s.Registry.labels in
      if name <> !last_name then begin
        last_name := name;
        Buffer.add_string b
          (Printf.sprintf "# HELP %s %s\n" name (escape_help s.Registry.help));
        Buffer.add_string b
          (Printf.sprintf "# TYPE %s %s\n" name (type_of_value s.Registry.value))
      end;
      match s.Registry.value with
      | Registry.Counter n -> line name labels (string_of_int n)
      | Registry.Gauge g -> line name labels (float_str g)
      | Registry.Info -> line name labels "1"
      | Registry.Hist h ->
          List.iter
            (fun edge ->
              line (name ^ "_bucket")
                (labels @ [ ("le", float_str edge) ])
                (string_of_int (Histogram.count_le h edge)))
            le_edges;
          line (name ^ "_bucket")
            (labels @ [ ("le", "+Inf") ])
            (string_of_int (Histogram.count h));
          line (name ^ "_sum") labels (float_str (Histogram.sum h));
          line (name ^ "_count") labels (string_of_int (Histogram.count h)))
    samples;
  Buffer.contents b

(* The status views' rows: [render]'s keys and numbers without the
   bucket ladder, each histogram summarised instead by a few quantile
   rows (labelled after its own labels, as [le] is). *)
let quantiles = [ ("0.5", 50.); ("0.9", 90.); ("0.99", 99.); ("1", 100.) ]

let listing samples =
  List.concat_map
    (fun (s : Registry.sample) ->
      let name = s.Registry.name and labels = s.Registry.labels in
      match s.Registry.value with
      | Registry.Counter n -> [ (key name labels, string_of_int n) ]
      | Registry.Gauge g -> [ (key name labels, float_str g) ]
      | Registry.Info -> [ (key name labels, "1") ]
      | Registry.Hist h ->
          (key (name ^ "_count") labels, string_of_int (Histogram.count h))
          :: (key (name ^ "_sum") labels, float_str (Histogram.sum h))
          :: List.map
               (fun (q, p) ->
                 ( key name (labels @ [ ("quantile", q) ]),
                   float_str (Histogram.percentile h p) ))
               quantiles)
    samples

let render_listing ~json samples =
  let rows = listing samples in
  if json then
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Json.str k ^ ":" ^ v) rows)
    ^ "}\n"
  else String.concat "" (List.map (fun (k, v) -> k ^ " " ^ v ^ "\n") rows)

(* ------------------------------------------------------------------ *)
(* Strict parsing and validation                                       *)
(* ------------------------------------------------------------------ *)

type series = {
  s_name : string;  (* full sample name, e.g. foo_bucket *)
  s_labels : (string * string) list;
  s_value : float;
}

type family = {
  f_name : string;  (* declared TYPE name *)
  f_type : string;
  f_series : series list;  (* in exposition order *)
}

exception Invalid of string

let fail fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt

let is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
  | _ -> false

let parse_sample_line line =
  let n = String.length line in
  let i = ref 0 in
  while !i < n && is_name_char line.[!i] do incr i done;
  if !i = 0 then fail "sample line does not start with a metric name: %S" line;
  let name = String.sub line 0 !i in
  let labels =
    if !i < n && line.[!i] = '{' then begin
      incr i;
      let labels = ref [] in
      let rec loop () =
        let k0 = !i in
        while !i < n && is_name_char line.[!i] do incr i done;
        if !i = k0 then fail "empty label name in %S" line;
        let key = String.sub line k0 (!i - k0) in
        if !i >= n || line.[!i] <> '=' then fail "expected = in %S" line;
        incr i;
        if !i >= n || line.[!i] <> '"' then fail "expected \" in %S" line;
        incr i;
        let b = Buffer.create 16 in
        let rec str () =
          if !i >= n then fail "unterminated label value in %S" line
          else
            match line.[!i] with
            | '"' -> incr i
            | '\\' ->
                incr i;
                if !i >= n then fail "bad escape in %S" line;
                (match line.[!i] with
                | 'n' -> Buffer.add_char b '\n'
                | '\\' -> Buffer.add_char b '\\'
                | '"' -> Buffer.add_char b '"'
                | c -> fail "bad escape \\%c in %S" c line);
                incr i;
                str ()
            | c ->
                Buffer.add_char b c;
                incr i;
                str ()
        in
        str ();
        labels := (key, Buffer.contents b) :: !labels;
        if !i < n && line.[!i] = ',' then begin
          incr i;
          loop ()
        end
        else if !i < n && line.[!i] = '}' then incr i
        else fail "expected , or } in %S" line
      in
      loop ();
      List.rev !labels
    end
    else []
  in
  if !i >= n || line.[!i] <> ' ' then fail "expected space before value in %S" line;
  incr i;
  let vs = String.sub line !i (n - !i) in
  let value =
    match vs with
    | "+Inf" -> infinity
    | "-Inf" -> neg_infinity
    | "NaN" -> nan
    | _ -> (
        match float_of_string_opt vs with
        | Some f -> f
        | None -> fail "unparsable value %S in %S" vs line)
  in
  { s_name = name; s_labels = labels; s_value = value }

let parse_sample line =
  match parse_sample_line line with s -> Some s | exception Invalid _ -> None

let base_of ~ftype name =
  if ftype = "histogram" then
    if Filename.check_suffix name "_bucket" then
      String.sub name 0 (String.length name - 7)
    else if Filename.check_suffix name "_sum" then
      String.sub name 0 (String.length name - 4)
    else if Filename.check_suffix name "_count" then
      String.sub name 0 (String.length name - 6)
    else name
  else name

(* Parse an exposition payload into families, enforcing structure as we
   go: TYPE before samples, families contiguous, no duplicate series. *)
let parse text =
  let lines = String.split_on_char '\n' text in
  let families = ref [] in  (* reverse order *)
  let current = ref None in  (* (name, type, series rev) *)
  let seen_names = Hashtbl.create 16 in
  let push () =
    match !current with
    | None -> ()
    | Some (name, ftype, series) ->
        families := { f_name = name; f_type = ftype; f_series = List.rev series } :: !families;
        current := None
  in
  List.iter
    (fun line ->
      if line = "" then ()
      else if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then begin
        let rest = String.sub line 7 (String.length line - 7) in
        match String.index_opt rest ' ' with
        | None -> fail "malformed TYPE line %S" line
        | Some sp ->
            let name = String.sub rest 0 sp in
            let ftype = String.sub rest (sp + 1) (String.length rest - sp - 1) in
            if not (List.mem ftype [ "counter"; "gauge"; "histogram"; "untyped" ])
            then fail "unknown type %S for %s" ftype name;
            if Hashtbl.mem seen_names name then
              fail "family %s declared twice (families must be contiguous)" name;
            Hashtbl.add seen_names name ();
            push ();
            current := Some (name, ftype, [])
      end
      else if String.length line >= 2 && String.sub line 0 2 = "# " then ()
        (* HELP and comments: free-form *)
      else begin
        let s = parse_sample_line line in
        match !current with
        | None -> fail "sample %s before any TYPE declaration" s.s_name
        | Some (name, ftype, series) ->
            if base_of ~ftype s.s_name <> name then
              fail "sample %s under family %s (families must be contiguous)"
                s.s_name name;
            current := Some (name, ftype, s :: series)
      end)
    lines;
  push ();
  List.rev !families

let le_value labels =
  match List.assoc_opt "le" labels with
  | None -> fail "histogram bucket without le label"
  | Some "+Inf" -> infinity
  | Some v -> (
      match float_of_string_opt v with
      | Some f -> f
      | None -> fail "unparsable le %S" v)

let without_le labels = List.filter (fun (k, _) -> k <> "le") labels

let validate_family f =
  (* No duplicate (name, labels) series. *)
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let key = (s.s_name, s.s_labels) in
      if Hashtbl.mem tbl key then
        fail "duplicate series %s%s" s.s_name (label_str s.s_labels);
      Hashtbl.add tbl key ())
    f.f_series;
  (* Labels sorted by name (our renderer's invariant; [le] lands last
     only because it sorts after our lowercase label names — enforce
     sortedness of the non-le prefix plus le last). *)
  List.iter
    (fun s ->
      let ls = List.map fst (without_le s.s_labels) in
      let sorted = List.sort compare ls in
      if ls <> sorted then
        fail "labels not sorted on %s%s" s.s_name (label_str s.s_labels))
    f.f_series;
  (match f.f_type with
  | "counter" ->
      List.iter
        (fun s ->
          if s.s_value < 0. then fail "negative counter %s" s.s_name;
          if s.s_name <> f.f_name then
            fail "counter sample %s does not match family %s" s.s_name f.f_name)
        f.f_series
  | "histogram" ->
      (* Group by label set (minus le); per group: buckets in increasing
         le order with nondecreasing cumulative counts, an +Inf bucket,
         and _count equal to it. *)
      let groups = Hashtbl.create 4 in
      List.iter
        (fun s ->
          let key = without_le s.s_labels in
          let prev = try Hashtbl.find groups key with Not_found -> [] in
          Hashtbl.replace groups key (s :: prev))
        f.f_series;
      Hashtbl.iter
        (fun key series ->
          let series = List.rev series in
          let buckets =
            List.filter (fun s -> s.s_name = f.f_name ^ "_bucket") series
          in
          if buckets = [] then
            fail "histogram %s%s has no buckets" f.f_name (label_str key);
          let last_le = ref neg_infinity and last_c = ref neg_infinity in
          List.iter
            (fun s ->
              let le = le_value s.s_labels in
              if le <= !last_le then
                fail "histogram %s buckets out of order (le %s)" f.f_name
                  (float_str le);
              if s.s_value < !last_c then
                fail "histogram %s bucket counts decreasing at le %s" f.f_name
                  (float_str le);
              last_le := le;
              last_c := s.s_value)
            buckets;
          if !last_le <> infinity then
            fail "histogram %s%s missing +Inf bucket" f.f_name (label_str key);
          let find_suffix suffix =
            List.find_opt (fun s -> s.s_name = f.f_name ^ suffix) series
          in
          (match find_suffix "_count" with
          | None -> fail "histogram %s%s missing _count" f.f_name (label_str key)
          | Some c ->
              if c.s_value <> !last_c then
                fail "histogram %s _count %s != +Inf bucket %s" f.f_name
                  (float_str c.s_value) (float_str !last_c));
          match find_suffix "_sum" with
          | None -> fail "histogram %s%s missing _sum" f.f_name (label_str key)
          | Some _ -> ())
        groups
  | _ -> ())

let validate text =
  (* The whole pipeline goes inside the scrutinee: an [exception] branch
     only covers the matched expression, and validate_family raises
     too. *)
  match
    let families = parse text in
    List.iter validate_family families;
    families
  with
  | families -> Ok families
  | exception Invalid msg -> Error msg
