(* The unified metrics registry: every counter, gauge and histogram a
   server exposes is registered once, by stable name, with a closure
   that reads the live value at collection time.  Renderers
   (/server-status text, ?json, /metrics exposition) are views over one
   [collect] walk, so they cannot drift from each other. *)

type labels = (string * string) list

type value =
  | Counter of int
  | Gauge of float
  | Hist of Histogram.t
  | Info  (* the labels are the payload; samples as a constant 1 *)

type sample = {
  name : string;
  help : string;
  labels : labels;
  value : value;
}

type metric = {
  m_name : string;
  m_help : string;
  m_labels : labels;  (* sorted by key at registration *)
  m_read : unit -> value;
}

type t = { mutable metrics : metric list (* reverse registration order *) }

let create () = { metrics = [] }

let valid_name s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       s

let valid_label_name s =
  s <> ""
  && s.[0] <> '_'  (* reserved prefix (and [le] is ours to add) *)
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let sort_labels labels =
  List.sort_uniq (fun (a, _) (b, _) -> compare a b) labels

let register t ~name ~help ~labels read =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Obs.Registry: invalid metric name %S" name);
  List.iter
    (fun (k, _) ->
      if not (valid_label_name k) then
        invalid_arg (Printf.sprintf "Obs.Registry: invalid label name %S" k))
    labels;
  let sorted = sort_labels labels in
  if List.length sorted <> List.length labels then
    invalid_arg "Obs.Registry: duplicate label names";
  let labels = sorted in
  if
    List.exists
      (fun m -> m.m_name = name && m.m_labels = labels)
      t.metrics
  then
    invalid_arg
      (Printf.sprintf "Obs.Registry: duplicate series %S" name);
  t.metrics <-
    { m_name = name; m_help = help; m_labels = labels; m_read = read }
    :: t.metrics

let counter t ~name ~help ?(labels = []) read =
  register t ~name ~help ~labels (fun () -> Counter (read ()))

let gauge t ~name ~help ?(labels = []) read =
  register t ~name ~help ~labels (fun () -> Gauge (read ()))

let histogram t ~name ~help ?(labels = []) read =
  register t ~name ~help ~labels (fun () -> Hist (read ()))

let info t ~name ~help ~labels =
  register t ~name ~help ~labels (fun () -> Info)

let sort_samples samples =
  List.stable_sort
    (fun a b ->
      match compare a.name b.name with 0 -> compare a.labels b.labels | c -> c)
    samples

(* One consistent walk: every renderer consumes this list.  Sorted by
   (name, labels) so exposition groups series of one metric together
   and output is deterministic. *)
let collect t =
  sort_samples
    (List.rev_map
       (fun m ->
         {
           name = m.m_name;
           help = m.m_help;
           labels = m.m_labels;
           value = m.m_read ();
         })
       t.metrics)

(* Summed-at-snapshot aggregation across shard registries: strip the
   shard label and fold series that collide.  Counters and gauges sum
   (a gauge like active connections is additive across shards); gauges
   whose name matches [gauge_max] take the max instead (uptime, SLO
   state); histograms merge; info series dedupe (same payload on every
   shard once the shard label is gone). *)
let aggregate ?(gauge_max = fun _ -> false) ~drop samples =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun s ->
      let labels = List.filter (fun (k, _) -> k <> drop) s.labels in
      let key = (s.name, labels) in
      match Hashtbl.find_opt tbl key with
      | None ->
          Hashtbl.replace tbl key { s with labels };
          order := key :: !order
      | Some prev ->
          let value =
            match (prev.value, s.value) with
            | Counter a, Counter b -> Counter (a + b)
            | Gauge a, Gauge b ->
                Gauge (if gauge_max s.name then Float.max a b else a +. b)
            | Hist a, Hist b -> Hist (Histogram.merge a b)
            | Info, Info -> Info
            | v, _ -> v (* mismatched kinds: first registration wins *)
          in
          Hashtbl.replace tbl key { prev with value })
    samples;
  sort_samples (List.rev_map (fun key -> Hashtbl.find tbl key) !order)

(* Lookups for callers that read a few values by name rather than
   render the walk (the live server's [stats]). *)
let find samples ?(labels = []) name =
  let labels = sort_labels labels in
  List.find_opt (fun s -> s.name = name && s.labels = labels) samples

let int_value ?labels samples name =
  match find samples ?labels name with
  | Some { value = Counter n; _ } -> n
  | Some { value = Gauge g; _ } -> int_of_float g
  | _ -> 0

let float_value ?labels samples name =
  match find samples ?labels name with
  | Some { value = Gauge g; _ } -> g
  | Some { value = Counter n; _ } -> float_of_int n
  | _ -> 0.

let hist_value ?labels samples name =
  match find samples ?labels name with
  | Some { value = Hist h; _ } -> Some h
  | _ -> None
