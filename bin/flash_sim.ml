(* flash-sim: run one simulated experiment and print its result.

     dune exec bin/flash_sim.exe -- --server flash --os freebsd \
       --dataset-mb 90 --clients 64 --duration 10 *)

open Cmdliner

let server_of_name = function
  | "flash" | "amped" -> Ok Flash.Config.flash
  | "sped" -> Ok Flash.Config.flash_sped
  | "mp" -> Ok Flash.Config.flash_mp
  | "mt" -> Ok Flash.Config.flash_mt
  | "apache" -> Ok Flash.Config.apache
  | "zeus" -> Ok (Flash.Config.zeus ~processes:2)
  | other -> Error other

let profile_of_name = function
  | "freebsd" -> Ok Simos.Os_profile.freebsd
  | "solaris" -> Ok Simos.Os_profile.solaris
  | other -> Error other

let run server os dataset_mb clients duration persistent single_file_kb log
    seed recorder_json =
  let server =
    match server_of_name (String.lowercase_ascii server) with
    | Ok s -> s
    | Error o ->
        Format.eprintf
          "unknown server %S (flash|sped|mp|mt|apache|zeus)@." o;
        exit 2
  in
  let profile =
    match profile_of_name (String.lowercase_ascii os) with
    | Ok p -> p
    | Error o ->
        Format.eprintf "unknown os %S (freebsd|solaris)@." o;
        exit 2
  in
  let fileset, next =
    match log with
    | Some path ->
        (* Replay a real (or exported) access log, as the paper does. *)
        let trace = Workload.Trace.load_clf ~path in
        ( trace.Workload.Trace.fileset,
          fun i -> Workload.Trace.request_path trace i )
    | None -> (
    match single_file_kb with
    | Some kb ->
        let fileset =
          {
            Workload.Fileset.spec = Workload.Fileset.ece_like ~files:1 ~seed;
            paths = [| "/www/data/set0/file.html" |];
            sizes = [| kb * 1024 |];
          }
        in
        (fileset, fun _ -> "/www/data/set0/file.html")
    | None ->
        let base =
          Workload.Fileset.generate
            (Workload.Fileset.ece_like ~files:9000 ~seed:31)
        in
        let fileset =
          Workload.Fileset.truncate base
            ~dataset_bytes:(dataset_mb * 1024 * 1024)
        in
        let trace =
          Workload.Trace.generate fileset ~length:60_000 ~alpha:0.9 ~seed
        in
        (fileset, fun i -> Workload.Trace.request_path trace i))
  in
  Format.printf
    "Workload: %d files, %.1f MB; %d %s clients; %s on %s; %.0fs measured@."
    (Workload.Fileset.file_count fileset)
    (float_of_int (Workload.Fileset.total_bytes fileset) /. 1048576.)
    clients
    (if persistent then "persistent" else "per-request")
    server.Flash.Config.label profile.Simos.Os_profile.name duration;
  let r =
    Workload.Driver.run ~seed ~clients ~persistent ~warmup:(duration /. 2.)
      ~duration ~profile ~server ~fileset ~next ()
  in
  Format.printf "%a@." Workload.Driver.pp_result r;
  Format.printf
    "completed=%d errors=%d disk_reads=%d cache_capacity=%.1fMB@."
    r.Workload.Driver.completed r.Workload.Driver.errors
    r.Workload.Driver.disk_reads
    (float_of_int r.Workload.Driver.cache_capacity_bytes /. 1048576.);
  let ts = r.Workload.Driver.timeseries in
  (match ts with
  | [] -> ()
  | _ ->
      let peak =
        List.fold_left
          (fun m w ->
            let n =
              Obs.Registry.int_value w.Obs.Recorder.samples
                "flash_http_requests_total"
            in
            Float.max m (float_of_int n /. w.Obs.Recorder.dur))
          0. ts
      in
      Format.printf "recorder:   %d windows, peak %.1f req/s@."
        (List.length ts) peak);
  match recorder_json with
  | None -> ()
  | Some file ->
      let oc = open_out_bin file in
      output_string oc (Obs.Recorder.rollups_json ts);
      output_char oc '\n';
      close_out oc;
      Format.printf "recorder:   wrote %s@." file

let server =
  Arg.(
    value & opt string "flash"
    & info [ "server"; "s" ] ~docv:"NAME"
        ~doc:"Server model: flash, sped, mp, mt, apache, zeus.")

let os =
  Arg.(
    value & opt string "freebsd"
    & info [ "os" ] ~docv:"OS" ~doc:"Cost profile: freebsd or solaris.")

let dataset_mb =
  Arg.(
    value & opt int 90
    & info [ "dataset-mb" ] ~docv:"MB" ~doc:"Trace dataset size.")

let clients =
  Arg.(value & opt int 64 & info [ "clients"; "c" ] ~docv:"N" ~doc:"Concurrent clients.")

let duration =
  Arg.(
    value & opt float 10.
    & info [ "duration"; "t" ] ~docv:"SEC" ~doc:"Measured simulated seconds.")

let persistent =
  Arg.(value & flag & info [ "persistent" ] ~doc:"HTTP/1.1 persistent connections.")

let single_file_kb =
  Arg.(
    value
    & opt (some int) None
    & info [ "single-file-kb" ] ~docv:"KB"
        ~doc:"Replace the trace with the single-file test at this size.")

let log =
  Arg.(
    value
    & opt (some string) None
    & info [ "log" ] ~docv:"FILE"
        ~doc:"Replay a Common Log Format access log instead of a synthetic trace.")

let seed = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N" ~doc:"RNG seed.")

let recorder_json =
  Arg.(
    value
    & opt (some string) None
    & info [ "recorder-json" ] ~docv:"FILE"
        ~doc:
          "Write the flight-recorder time series (per-window rollups on \
           the virtual clock) as JSON here.")

let cmd =
  let doc = "run one simulated Flash experiment" in
  Cmd.v (Cmd.info "flash-sim" ~doc)
    Term.(
      const run $ server $ os $ dataset_mb $ clients $ duration $ persistent
      $ single_file_kb $ log $ seed $ recorder_json)

let () = exit (Cmd.eval cmd)
