(** CGI scripts as process groups.

    A script runs as the leader of a process group of its own, so the
    server ends it together with anything it started.  Wherever a
    script's response ends (its pipe's end of file, its connection's
    close, its deadline), {!finish} kills the group and reaps the
    script: no script outlives its response, and none is left a
    zombie. *)

val spawn :
  string -> env:string array -> stdin:Unix.file_descr ->
  stdout:Unix.file_descr -> int
(** [spawn path ~env ~stdin ~stdout] starts the script [path] (its
    argv is [path] alone) with environment [env], [stdin] and [stdout]
    as its descriptors 0 and 1 and the server's stderr as its 2, as the
    leader of a new process group, and returns its pid.  Descriptors
    opened close-on-exec stay behind.  Raises [Unix.Unix_error] when
    the kernel will not run it (no [#!] line, a missing interpreter). *)

val finish : int -> unit
(** [finish pid] sends SIGKILL to the process group of the script
    [pid], then waits for the script itself, which the kill makes
    brief.  A group with nothing left in it to kill is no error. *)
