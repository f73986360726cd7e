(* Benchmark driver: regenerates every figure of the paper's evaluation
   plus microbenchmarks.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- fig9    # one figure
     FLASH_BENCH_FAST=1 dune exec ...    # abbreviated sweep (CI) *)

(* Microbenchmarks run first: the figure sims leave a large heap that
   would distort them. *)
let all : (string * (unit -> unit)) list =
  [
    ("micro", Micro.run);
    ("fig6", Figures.fig6);
    ("fig7", Figures.fig7);
    ("fig8", Figures.fig8);
    ("fig9", Figures.fig9);
    ("fig10", Figures.fig10);
    ("fig11", Figures.fig11);
    ("fig12", Figures.fig12);
    ("ablate", Ablate.run);
    ("timeline", Timeline.run);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst all
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name all with
      | Some f ->
          let t = Unix.gettimeofday () in
          f ();
          Format.printf "@.[%s took %.1fs]@." name (Unix.gettimeofday () -. t)
      | None ->
          Format.eprintf "unknown bench %S; available: %s@." name
            (String.concat ", " (List.map fst all));
          exit 2)
    requested;
  Format.printf "@.Total wall time: %.1fs@." (Unix.gettimeofday () -. t0)
