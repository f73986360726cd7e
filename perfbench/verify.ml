(* What a correct response to each request kind looks like, derived
   from the docroot file alone: status, Content-Length, ETag,
   Content-Range and the exact body bytes. *)

type expect =
  | Full of { file : Workload.file; etag : string }
  | Not_modified of { etag : string }
  | Partial of { file : Workload.file; etag : string; off : int; len : int }

let expect (w : Workload.t) ~etag (r : Workload.request) =
  let file = w.Workload.files.(r.Workload.file) in
  match r.Workload.kind with
  | Workload.Get -> Full { file; etag }
  | Workload.If_none_match -> Not_modified { etag }
  | Workload.Range (off, len) -> Partial { file; etag; off; len }

let ( let* ) = Result.bind

let need what ok = if ok then Ok () else Error what

let header_is (r : Client.response) name want =
  match Client.header r name with
  | Some v when v = want -> Ok ()
  | Some v -> Error (Printf.sprintf "%s %S, expected %S" name v want)
  | None -> Error (Printf.sprintf "no %s, expected %S" name want)

let status_is (r : Client.response) want =
  need
    (Printf.sprintf "status %d, expected %d" r.Client.status want)
    (r.Client.status = want)

let body_is content (r : Client.response) (file : Workload.file) ~off ~len =
  let* () =
    need
      (Printf.sprintf "body %d bytes, expected %d" r.Client.body_len len)
      (r.Client.body_len = len)
  in
  need "body bytes differ from the file"
    (Content.equal content ~start:file.Workload.start ~off r.Client.body ~boff:0 ~len)

let check content expect (r : Client.response) =
  let* () =
    need
      (Printf.sprintf "%d bytes past the end of the response" r.Client.trailing)
      (r.Client.trailing = 0)
  in
  match expect with
  | Full { file; etag } ->
      let size = file.Workload.size in
      let* () = status_is r 200 in
      let* () = header_is r "content-length" (string_of_int size) in
      let* () = header_is r "etag" etag in
      body_is content r file ~off:0 ~len:size
  | Not_modified { etag } ->
      let* () = status_is r 304 in
      let* () = header_is r "etag" etag in
      need "304 with a body" (r.Client.body_len = 0)
  | Partial { file; etag; off; len } ->
      let size = file.Workload.size in
      let* () = status_is r 206 in
      let* () = header_is r "content-length" (string_of_int len) in
      let* () =
        header_is r "content-range"
          (Printf.sprintf "bytes %d-%d/%d" off (off + len - 1) size)
      in
      let* () = header_is r "etag" etag in
      body_is content r file ~off ~len
