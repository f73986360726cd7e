(** HTTP response header construction.

    [header] renders the status line and headers through the terminating
    blank line.  With [~align] (Flash's §5.5 optimization), the [Server]
    header is padded so the total header length is a multiple of the
    alignment — keeping the file data that follows it in a [writev]
    cache-line aligned inside the kernel copy. *)

val default_server : string

val header :
  ?version:string ->
  ?server:string ->
  ?content_type:string ->
  ?content_length:int ->
  ?keep_alive:bool ->
  ?date:float ->
  ?last_modified:float ->
  ?extra:(string * string) list ->
  ?align:int ->
  status:Status.t ->
  unit ->
  string

(** Both connection variants of the same header — [(keep_alive,
    close)] — for caches that pre-render a response header per file and
    must serve either kind of client from the one entry. *)
val header_pair :
  ?version:string ->
  ?server:string ->
  ?content_type:string ->
  ?content_length:int ->
  ?date:float ->
  ?last_modified:float ->
  ?extra:(string * string) list ->
  ?align:int ->
  status:Status.t ->
  unit ->
  string * string

(** The four headers a cached file answers with, in one string: the
    200 with [Connection: keep-alive], the same with
    [Connection: close], then the 304's two, in that order, each as
    long as its field says. *)
type cached = {
  text : string;
  ok_keep : int;
  ok_close : int;
  not_modified_keep : int;
  not_modified_close : int;
}

(** [cached ~content_type ~content_length ~date ~last_modified
    ~ok_extra ~not_modified_extra ()] renders in one pass, into one
    buffer, what two {!header_pair} calls render: the 200's pair with
    [content_type], [content_length] and [ok_extra], and the 304's
    pair with neither entity field and [not_modified_extra], both with
    [date] and [last_modified].  Each date and the length are
    formatted once, and each variant's bytes are those of its
    {!header_pair} twin, alignment included. *)
val cached :
  ?version:string ->
  ?server:string ->
  ?align:int ->
  content_type:string ->
  content_length:int ->
  date:float ->
  last_modified:float ->
  ok_extra:(string * string) list ->
  not_modified_extra:(string * string) list ->
  unit ->
  cached

(** The [Retry-After] header pair for 429/503 overload responses, as
    a delay in whole seconds — ready for [header]'s [~extra] list.
    @raise Invalid_argument on a negative delay. *)
val retry_after : int -> string * string

(** A minimal HTML error body matching the status. *)
val error_body : Status.t -> string
