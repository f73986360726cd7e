type kind = Lru | Slru | Lfu | Gdsf

let all = [ Lru; Slru; Lfu; Gdsf ]

let name = function
  | Lru -> "lru"
  | Slru -> "slru"
  | Lfu -> "lfu"
  | Gdsf -> "gdsf"

let valid_names = String.concat "|" (List.map name all)

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "lru" -> Ok Lru
  | "slru" -> Ok Slru
  | "lfu" -> Ok Lfu
  | "gdsf" -> Ok Gdsf
  | other ->
      Error
        (Printf.sprintf "unknown cache policy %S (valid policies: %s)" other
           valid_names)

type 'k node = {
  key : 'k;
  mutable weight : int;
  mutable newer : 'k node option;
  mutable older : 'k node option;
  mutable protected_ : bool;
  mutable charged : int;
  mutable score : float;
  mutable stamp : int;
  mutable slot : int;
  mutable freq : int;
}

let node key ~weight =
  {
    key;
    weight;
    newer = None;
    older = None;
    protected_ = false;
    charged = 0;
    score = 0.0;
    stamp = 0;
    slot = -1;
    freq = 0;
  }

type 'k impl = {
  insert : 'k node -> unit;
  access : 'k node -> unit;
  remove : 'k node -> unit;
  victim : unit -> 'k node option;
  resize : int -> unit;
}

(* ------------------------------------------------------------------ *)
(* Doubly-linked recency list of nodes (LRU / SLRU segments)           *)
(* ------------------------------------------------------------------ *)

module Dlist = struct
  type 'k t = { mutable mru : 'k node option; mutable lru : 'k node option }

  let create () = { mru = None; lru = None }

  let unlink t n =
    (match n.newer with
    | Some p -> p.older <- n.older
    | None -> t.mru <- n.older);
    (match n.older with
    | Some o -> o.newer <- n.newer
    | None -> t.lru <- n.newer);
    n.newer <- None;
    n.older <- None

  (* [n] is in no list.  One [Some] serves both links that name it. *)
  let push_front t n =
    let self = Some n in
    n.older <- t.mru;
    (match t.mru with Some m -> m.newer <- self | None -> t.lru <- self);
    t.mru <- self

  (* A hit's touch: nothing to do for the most recent node. *)
  let touch t n =
    match t.mru with
    | Some m when m == n -> ()
    | _ ->
        unlink t n;
        push_front t n
end

(* ------------------------------------------------------------------ *)
(* Indexed min-heap of nodes by (score, stamp)                         *)
(* ------------------------------------------------------------------ *)

(* Each ordered node sits in the heap once, at its [slot]; a rescore
   moves it in place.  Ties break on the stamp, the count of scorings
   when the node was last scored, so victim choice is deterministic. *)
module Heap = struct
  type 'k t = {
    mutable a : 'k node array;
    mutable len : int;
    mutable clock : int;  (* scorings so far *)
  }

  let create () = { a = [||]; len = 0; clock = 0 }

  let less x y = x.score < y.score || (x.score = y.score && x.stamp < y.stamp)

  let set t i n =
    t.a.(i) <- n;
    n.slot <- i

  let rec up t i =
    if i > 0 then begin
      let p = (i - 1) / 2 in
      let n = t.a.(i) in
      if less n t.a.(p) then begin
        set t i t.a.(p);
        set t p n;
        up t p
      end
    end

  let rec down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let s = if l < t.len && less t.a.(l) t.a.(i) then l else i in
    let s = if r < t.len && less t.a.(r) t.a.(s) then r else s in
    if s <> i then begin
      let n = t.a.(i) in
      set t i t.a.(s);
      set t s n;
      down t s
    end

  let reorder t n =
    up t n.slot;
    down t n.slot

  (* [n] was just scored: stamp it and move it to where it belongs. *)
  let scored t n =
    t.clock <- t.clock + 1;
    n.stamp <- t.clock;
    reorder t n

  let add t n =
    if t.len = Array.length t.a then begin
      let a = Array.make (max 16 (2 * t.len)) n in
      Array.blit t.a 0 a 0 t.len;
      t.a <- a
    end;
    set t t.len n;
    t.len <- t.len + 1;
    scored t n

  let remove t n =
    t.len <- t.len - 1;
    if n.slot < t.len then begin
      let last = t.a.(t.len) in
      set t n.slot last;
      reorder t last
    end

  let top t = if t.len = 0 then None else Some t.a.(0)

  (* Restore heap order after every score changed at once. *)
  let heapify t =
    for i = (t.len / 2) - 1 downto 0 do
      down t i
    done
end

(* ------------------------------------------------------------------ *)
(* LRU                                                                 *)
(* ------------------------------------------------------------------ *)

let make_lru () =
  let order = Dlist.create () in
  {
    insert = Dlist.push_front order;
    access = Dlist.touch order;
    remove = Dlist.unlink order;
    victim = (fun () -> order.Dlist.lru);
    resize = ignore;
  }

(* ------------------------------------------------------------------ *)
(* SLRU: probationary + protected segments                             *)
(* ------------------------------------------------------------------ *)

(* New entries land in probation; only a hit promotes into the
   protected segment (bounded at 4/5 of the capacity by weight,
   overflow demoting back to probation MRU).  Victims come from
   probation first, so a one-touch scan can never displace the
   protected hot set.  The segment counts each node at the weight it
   was [charged] when last touched, so a re-weighed node is recounted
   on its touch and demoted if it no longer fits. *)
let slru_protected_num = 4

let slru_protected_den = 5

let make_slru ~capacity () =
  let probation = Dlist.create () in
  let protected_ = Dlist.create () in
  let protected_cap = ref (capacity / slru_protected_den * slru_protected_num) in
  let protected_weight = ref 0 in
  let leave_protected n =
    Dlist.unlink protected_ n;
    protected_weight := !protected_weight - n.charged;
    n.protected_ <- false;
    n.charged <- 0
  in
  let rec demote_overflow () =
    if !protected_weight > !protected_cap then
      match protected_.Dlist.lru with
      | None -> ()
      | Some n ->
          leave_protected n;
          Dlist.push_front probation n;
          demote_overflow ()
  in
  {
    insert = Dlist.push_front probation;
    access =
      (fun n ->
        if n.protected_ then Dlist.touch protected_ n
        else begin
          Dlist.unlink probation n;
          Dlist.push_front protected_ n;
          n.protected_ <- true
        end;
        protected_weight := !protected_weight + n.weight - n.charged;
        n.charged <- n.weight;
        demote_overflow ());
    remove =
      (fun n ->
        if n.protected_ then leave_protected n else Dlist.unlink probation n);
    victim =
      (fun () ->
        match probation.Dlist.lru with
        | Some _ as v -> v
        | None -> protected_.Dlist.lru);
    resize =
      (fun capacity ->
        protected_cap := capacity / slru_protected_den * slru_protected_num;
        demote_overflow ());
  }

(* ------------------------------------------------------------------ *)
(* LFU with EMA decay (pcache-style frequency ranking)                 *)
(* ------------------------------------------------------------------ *)

(* Per-access geometric decay [lfu_decay] is folded into a growing
   contribution multiplier instead of sweeping old scores: access [j]
   adds [1/decay^j], so score ratios equal decayed-frequency ratios and
   ordering is preserved without ever touching idle entries.  When the
   multiplier nears overflow every score is renormalised (divided by
   it) in place, and the heap re-ordered in case rounding made two
   scores equal. *)
let lfu_decay = 0.999

let lfu_renorm_threshold = 1e100

let make_lfu () =
  let heap = Heap.create () in
  let mult = ref 1.0 in
  let renormalize () =
    let m = !mult in
    mult := 1.0;
    for i = 0 to heap.Heap.len - 1 do
      let n = heap.Heap.a.(i) in
      n.score <- n.score /. m
    done;
    Heap.heapify heap
  in
  let bump n =
    mult := !mult /. lfu_decay;
    if !mult > lfu_renorm_threshold then renormalize ();
    n.score <- n.score +. !mult
  in
  {
    insert =
      (fun n ->
        n.score <- 0.0;
        bump n;
        Heap.add heap n);
    access =
      (fun n ->
        bump n;
        Heap.scored heap n);
    remove = Heap.remove heap;
    victim = (fun () -> Heap.top heap);
    resize = ignore;
  }

(* ------------------------------------------------------------------ *)
(* GDSF: Greedy-Dual-Size-Frequency                                    *)
(* ------------------------------------------------------------------ *)

(* Priority [L + freq / size]: small, frequently-hit objects rank high;
   a large one-touch object is the cheapest victim.  [L] inflates to
   each victim's priority, so long-resident entries age relative to
   fresh insertions — the classic web-proxy policy (Cherkasova). *)
let make_gdsf () =
  let heap = Heap.create () in
  let aging = ref 0.0 in
  let rescore n =
    n.freq <- n.freq + 1;
    n.score <- !aging +. (float_of_int n.freq /. float_of_int (max 1 n.weight))
  in
  {
    insert =
      (fun n ->
        n.freq <- 0;
        rescore n;
        Heap.add heap n);
    access =
      (fun n ->
        rescore n;
        Heap.scored heap n);
    remove = Heap.remove heap;
    victim =
      (fun () ->
        match Heap.top heap with
        | Some n as v ->
            aging := n.score;
            v
        | None -> None);
    resize = ignore;
  }

let make kind ~capacity () =
  match kind with
  | Lru -> make_lru ()
  | Slru -> make_slru ~capacity ()
  | Lfu -> make_lfu ()
  | Gdsf -> make_gdsf ()

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)
(* ------------------------------------------------------------------ *)

type admission =
  | Admit_always
  | Admit_min_size of int
  | Admit_freq of float

let admission_name = function
  | Admit_always -> "always"
  | Admit_min_size n -> Printf.sprintf "size:%d" n
  | Admit_freq p -> Printf.sprintf "freq:%g" p

let admission_valid_names = "always|size:BYTES|freq[:PROB]"

let admission_of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  let err () =
    Error
      (Printf.sprintf
         "unknown admission policy %S (valid admission policies: %s)" s
         admission_valid_names)
  in
  match String.index_opt s ':' with
  | None -> (
      match s with
      | "always" -> Ok Admit_always
      | "freq" -> Ok (Admit_freq 0.1)
      | _ -> err ())
  | Some i -> (
      let head = String.sub s 0 i in
      let arg = String.sub s (i + 1) (String.length s - i - 1) in
      match head with
      | "size" | "minsize" | "min-size" -> (
          match int_of_string_opt arg with
          | Some n when n >= 0 -> Ok (Admit_min_size n)
          | _ -> err ())
      | "freq" -> (
          match float_of_string_opt arg with
          | Some p when p >= 0.0 && p <= 1.0 -> Ok (Admit_freq p)
          | _ -> err ())
      | _ -> err ())

type 'k gate = {
  admit : 'k -> weight:int -> bool;
  note_miss : 'k -> unit;
  gate_clear : unit -> unit;
  gate_keys : unit -> 'k list;
}

let no_gate_state =
  {
    admit = (fun _ ~weight:_ -> true);
    note_miss = ignore;
    gate_clear = ignore;
    gate_keys = (fun () -> []);
  }

(* The doorkeeper remembers keys that missed recently.  Bounded by
   periodic reset (a crude sliding window): forgetting everything at
   once only costs a few extra first-timer rejections. *)
let doorkeeper_limit = 65536

(* Deterministic xorshift stream for the probabilistic part: admission
   decisions are reproducible run to run. *)
let make_freq_gate p =
  let seen : ('k, unit) Hashtbl.t = Hashtbl.create 1024 in
  let rng = ref 0x2545F4914F6CDD1D in
  let next_uniform () =
    let x = !rng in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    rng := x;
    float_of_int (x land 0x3FFFFFFF) /. float_of_int 0x40000000
  in
  {
    admit =
      (fun k ~weight:_ -> Hashtbl.mem seen k || next_uniform () < p);
    note_miss =
      (fun k ->
        if Hashtbl.length seen >= doorkeeper_limit then Hashtbl.reset seen;
        Hashtbl.replace seen k ());
    gate_clear = (fun () -> Hashtbl.reset seen);
    gate_keys = (fun () -> Hashtbl.fold (fun k () acc -> k :: acc) seen []);
  }

let make_gate admission () =
  match admission with
  | Admit_always -> no_gate_state
  | Admit_min_size n ->
      { no_gate_state with admit = (fun _ ~weight -> weight >= n) }
  | Admit_freq p -> make_freq_gate p
