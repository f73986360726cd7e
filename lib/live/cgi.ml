external spawn :
  string -> env:string array -> stdin:Unix.file_descr ->
  stdout:Unix.file_descr -> int = "flash_cgi_spawn"

(* The group is the script's pid, which stays its own until the reap
   below: a pid is not reused while its process is unreaped. *)
let finish pid =
  if pid > 1 then begin
    (try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ());
    let rec reap () =
      match Unix.waitpid [] pid with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
      | exception Unix.Unix_error _ -> ()
    in
    reap ()
  end
