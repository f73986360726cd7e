(** Dynamic content via persistent CGI application processes (§5.6).

    A request for a dynamic document is forwarded over a pipe to the
    auxiliary application process for that script — forked on first use
    and kept alive afterwards (FastCGI-style persistence, amortizing the
    fork).  The application computes (its own CPU slice) and may block
    (simulated think time) without affecting the server, then posts its
    output length back through the supplied completion.  Completions run
    in the application's process context: event loops hand them a pipe
    write, blocking workers a mailbox send. *)

type t

val create :
  Simos.Kernel.t ->
  cpu:float ->
  think:float ->
  response_bytes:int ->
  footprint:int ->
  t

(** [dispatch t ~script ~on_done] forwards a request to [script]'s
    process (forking it first if needed — charged to the caller, as the
    server does the fork).  [on_done ~bytes] later runs in the app's
    context.  Must run in process context. *)
val dispatch : t -> script:string -> on_done:(bytes:int -> unit) -> unit

(** Requests forwarded so far. *)
val requests : t -> int
