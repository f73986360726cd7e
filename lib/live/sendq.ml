type item = Slice of Iovec.slice | Body of Iovec.slice * File_cache.lease
type t = { q : item Queue.t }

let create () = { q = Queue.create () }
let is_empty t = Queue.is_empty t.q

let push_slice t (s : Iovec.slice) =
  if s.Iovec.len > 0 then Queue.push (Slice s) t.q

let push_body t (s : Iovec.slice) = function
  | None -> push_slice t s
  | Some m ->
      if s.Iovec.len > 0 then begin
        File_cache.acquire m;
        Queue.push (Body (s, m)) t.q
      end

let push_string t s =
  let n = String.length s in
  if n > 0 then push_slice t (Iovec.slice (Iovec.of_string s));
  n

let gather t =
  let acc = ref [] in
  let count = ref 0 in
  (try
     Queue.iter
       (fun (Slice s | Body (s, _)) ->
         if !count >= Iovec.max_iovecs then raise Exit;
         acc := s :: !acc;
         incr count)
       t.q
   with Exit -> ());
  Array.of_list (List.rev !acc)

(* Pop the head slice; a body slice's lease ends with it. *)
let pop_slice t =
  match Queue.pop t.q with
  | Body (_, m) -> File_cache.release m
  | Slice _ -> ()

let advance t n =
  let left = ref n in
  while !left > 0 do
    match Queue.peek_opt t.q with
    | Some (Slice s | Body (s, _)) ->
        let take = min s.Iovec.len !left in
        s.Iovec.off <- s.Iovec.off + take;
        s.Iovec.len <- s.Iovec.len - take;
        left := !left - take;
        if s.Iovec.len = 0 then pop_slice t
    | None -> invalid_arg "Sendq.advance: count exceeds gathered slices"
  done;
  (* Drop any slices emptied exactly at the boundary. *)
  let rec trim () =
    match Queue.peek_opt t.q with
    | Some (Slice s | Body (s, _)) when s.Iovec.len = 0 ->
        pop_slice t;
        trim ()
    | _ -> ()
  in
  trim ()

let clear t =
  Queue.iter (function Body (_, m) -> File_cache.release m | Slice _ -> ()) t.q;
  Queue.clear t.q
