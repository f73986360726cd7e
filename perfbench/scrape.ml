(* Server counters read from outside: one GET of /metrics, parsed and
   checked by the exposition validator, then looked up by exact sample
   name (summed over label sets). *)

type t = (string * float) list  (* sample name -> value, summed over labels *)

let of_exposition text : (t, string) result =
  match Obs.Exposition.validate text with
  | Error e -> Error e
  | Ok families ->
      let tbl = Hashtbl.create 64 in
      List.iter
        (fun (f : Obs.Exposition.family) ->
          List.iter
            (fun (s : Obs.Exposition.series) ->
              let prev =
                Option.value (Hashtbl.find_opt tbl s.Obs.Exposition.s_name) ~default:0.
              in
              Hashtbl.replace tbl s.Obs.Exposition.s_name (prev +. s.Obs.Exposition.s_value))
            f.Obs.Exposition.f_series)
        families;
      Ok (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let fetch ~port : (t, string) result =
  let c = Client.create (Client.tcp_connect port) in
  let r =
    Client.exchange c "GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
  in
  Client.disconnect c;
  match r with
  | Error f -> Error (Client.failure_to_string f)
  | Ok r when r.Client.status <> 200 -> Error (Printf.sprintf "status %d" r.Client.status)
  | Ok r -> of_exposition (Bytes.sub_string r.Client.body 0 r.Client.body_len)

(* A missing sample reads 0: a family with no series yet has counted
   nothing. *)
let get (t : t) name = Option.value (List.assoc_opt name t) ~default:0.

let delta ~before ~after name = get after name -. get before name
