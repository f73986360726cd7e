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

type 'k impl = {
  insert : 'k -> weight:int -> unit;
  access : 'k -> unit;
  remove : 'k -> unit;
  victim : unit -> 'k option;
  resize : int -> unit;
  clear : unit -> unit;
}

(* ------------------------------------------------------------------ *)
(* Keyed doubly-linked recency list (LRU / SLRU segments)              *)
(* ------------------------------------------------------------------ *)

module Klist = struct
  type 'k node = {
    key : 'k;
    mutable prev : 'k node option;  (* toward MRU *)
    mutable next : 'k node option;  (* toward LRU *)
  }

  type 'k t = {
    tbl : ('k, 'k node) Hashtbl.t;
    mutable mru : 'k node option;
    mutable lru : 'k node option;
  }

  let create () = { tbl = Hashtbl.create 64; mru = None; lru = None }
  let mem t k = Hashtbl.mem t.tbl k

  let unlink t node =
    (match node.prev with
    | Some p -> p.next <- node.next
    | None -> t.mru <- node.next);
    (match node.next with
    | Some n -> n.prev <- node.prev
    | None -> t.lru <- node.prev);
    node.prev <- None;
    node.next <- None

  (* [k] is not in the list: every caller pushes a key it has just
     removed or never held, so the table is not searched. *)
  let push_front t k =
    let node = { key = k; prev = None; next = t.mru } in
    (match t.mru with Some m -> m.prev <- Some node | None -> ());
    t.mru <- Some node;
    if t.lru = None then t.lru <- Some node;
    Hashtbl.add t.tbl k node

  (* A hit's touch: nothing to do for the most recent node, and one
     [Some] shared by both links that name the node otherwise. *)
  let touch t k =
    match Hashtbl.find t.tbl k with
    | exception Not_found -> ()
    | node -> (
        match t.mru with
        | Some m when m == node -> ()
        | _ ->
            unlink t node;
            node.next <- t.mru;
            let self = Some node in
            (match t.mru with Some m -> m.prev <- self | None -> ());
            t.mru <- self;
            if t.lru = None then t.lru <- self)

  let remove t k =
    match Hashtbl.find_opt t.tbl k with
    | None -> false
    | Some node ->
        unlink t node;
        Hashtbl.remove t.tbl k;
        true

  let tail t = Option.map (fun n -> n.key) t.lru

  let clear t =
    Hashtbl.reset t.tbl;
    t.mru <- None;
    t.lru <- None
end

(* ------------------------------------------------------------------ *)
(* Lazy min-heap of (priority, seq, key) for score-ranked policies     *)
(* ------------------------------------------------------------------ *)

(* Entries are never updated in place: a rescore pushes a fresh record
   and the stale one is skipped at pop time (its priority no longer
   matches the key's current one).  Ties break on push sequence, so
   victim choice is deterministic. *)
module Pheap = struct
  type 'k entry = { pri : float; seq : int; hkey : 'k }
  type 'k t = { mutable a : 'k entry array; mutable len : int }

  let create () = { a = [||]; len = 0 }

  let less x y = x.pri < y.pri || (x.pri = y.pri && x.seq < y.seq)

  let swap t i j =
    let tmp = t.a.(i) in
    t.a.(i) <- t.a.(j);
    t.a.(j) <- tmp

  let push t e =
    if t.len = Array.length t.a then begin
      let cap = max 16 (2 * Array.length t.a) in
      let a = Array.make cap e in
      Array.blit t.a 0 a 0 t.len;
      t.a <- a
    end;
    t.a.(t.len) <- e;
    t.len <- t.len + 1;
    let i = ref (t.len - 1) in
    while !i > 0 && less t.a.(!i) t.a.((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      swap t !i p;
      i := p
    done

  let pop t =
    if t.len = 0 then None
    else begin
      let top = t.a.(0) in
      t.len <- t.len - 1;
      if t.len > 0 then begin
        t.a.(0) <- t.a.(t.len);
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let s = ref !i in
          if l < t.len && less t.a.(l) t.a.(!s) then s := l;
          if r < t.len && less t.a.(r) t.a.(!s) then s := r;
          if !s = !i then continue := false
          else begin
            swap t !s !i;
            i := !s
          end
        done
      end;
      Some top
    end

  let clear t = t.len <- 0

  (* Keep only the records [live] accepts, in heap order again: the
     stale records a rescore leaves behind are dropped without a pop.
     Allocates nothing; O(len). *)
  let compact t ~live =
    let n = ref 0 in
    for i = 0 to t.len - 1 do
      if live t.a.(i) then begin
        t.a.(!n) <- t.a.(i);
        incr n
      end
    done;
    t.len <- !n;
    let rec sift i =
      let l = (2 * i) + 1 and r = (2 * i) + 2 in
      let s = if l < t.len && less t.a.(l) t.a.(i) then l else i in
      let s = if r < t.len && less t.a.(r) t.a.(s) then r else s in
      if s <> i then begin
        swap t s i;
        sift s
      end
    in
    for i = (t.len / 2) - 1 downto 0 do
      sift i
    done

  (* A heap that holds more than twice the [live] records it needs,
     and more than a handful, is compacted: each rescore pushes a
     record, and a popular key's old ones sit above the eviction
     floor, where a pop seldom reaches them. *)
  let bound t ~live ~count =
    if t.len > 16 && t.len > 2 * count then compact t ~live
end

(* ------------------------------------------------------------------ *)
(* LRU                                                                 *)
(* ------------------------------------------------------------------ *)

let make_lru () =
  let order = Klist.create () in
  {
    insert = (fun k ~weight:_ -> Klist.push_front order k);
    access = (fun k -> Klist.touch order k);
    remove = (fun k -> ignore (Klist.remove order k));
    victim = (fun () -> Klist.tail order);
    resize = (fun _ -> ());
    clear = (fun () -> Klist.clear order);
  }

(* ------------------------------------------------------------------ *)
(* SLRU: probationary + protected segments                             *)
(* ------------------------------------------------------------------ *)

(* New entries land in probation; only a hit promotes into the
   protected segment (bounded at 4/5 of the capacity by weight,
   overflow demoting back to probation MRU).  Victims come from
   probation first, so a one-touch scan can never displace the
   protected hot set. *)
let slru_protected_num = 4

let slru_protected_den = 5

let make_slru ~capacity () =
  let probation = Klist.create () in
  let protected_ = Klist.create () in
  let weights : ('k, int) Hashtbl.t = Hashtbl.create 64 in
  let protected_cap = ref (capacity / slru_protected_den * slru_protected_num) in
  let protected_weight = ref 0 in
  let weight_of k = Option.value ~default:0 (Hashtbl.find_opt weights k) in
  let demote_overflow () =
    let continue = ref true in
    while !protected_weight > !protected_cap && !continue do
      match Klist.tail protected_ with
      | None -> continue := false
      | Some k ->
          ignore (Klist.remove protected_ k);
          protected_weight := !protected_weight - weight_of k;
          Klist.push_front probation k
    done
  in
  {
    insert =
      (fun k ~weight ->
        Hashtbl.replace weights k weight;
        Klist.push_front probation k);
    access =
      (fun k ->
        if Klist.mem probation k then begin
          ignore (Klist.remove probation k);
          Klist.push_front protected_ k;
          protected_weight := !protected_weight + weight_of k;
          demote_overflow ()
        end
        else Klist.touch protected_ k);
    remove =
      (fun k ->
        if Klist.remove probation k then ()
        else if Klist.remove protected_ k then
          protected_weight := !protected_weight - weight_of k;
        Hashtbl.remove weights k);
    victim =
      (fun () ->
        match Klist.tail probation with
        | Some _ as v -> v
        | None -> Klist.tail protected_);
    resize =
      (fun capacity ->
        protected_cap := capacity / slru_protected_den * slru_protected_num;
        demote_overflow ());
    clear =
      (fun () ->
        Klist.clear probation;
        Klist.clear protected_;
        Hashtbl.reset weights;
        protected_weight := 0);
  }

(* ------------------------------------------------------------------ *)
(* LFU with EMA decay (pcache-style frequency ranking)                 *)
(* ------------------------------------------------------------------ *)

(* Per-access geometric decay [lfu_decay] is folded into a growing
   contribution multiplier instead of sweeping old scores: access [j]
   adds [1/decay^j], so score ratios equal decayed-frequency ratios and
   ordering is preserved without ever touching idle entries.  When the
   multiplier nears overflow every score is renormalised (divided by
   it) and the heap rebuilt — ordering again unchanged. *)
let lfu_decay = 0.999

let lfu_renorm_threshold = 1e100

let make_lfu () =
  let scores : ('k, float) Hashtbl.t = Hashtbl.create 64 in
  let seqs : ('k, int) Hashtbl.t = Hashtbl.create 64 in
  let heap = Pheap.create () in
  let mult = ref 1.0 in
  let seq = ref 0 in
  let live e =
    match Hashtbl.find_opt seqs e.Pheap.hkey with
    | Some q -> q = e.Pheap.seq
    | None -> false
  in
  let push k score =
    incr seq;
    Hashtbl.replace seqs k !seq;
    Pheap.push heap { Pheap.pri = score; seq = !seq; hkey = k };
    Pheap.bound heap ~live ~count:(Hashtbl.length seqs)
  in
  let renormalize () =
    let m = !mult in
    mult := 1.0;
    Pheap.clear heap;
    let snapshot = Hashtbl.fold (fun k s acc -> (k, s /. m) :: acc) scores [] in
    List.iter
      (fun (k, s) ->
        Hashtbl.replace scores k s;
        push k s)
      snapshot
  in
  let bump k =
    mult := !mult /. lfu_decay;
    if !mult > lfu_renorm_threshold then renormalize ();
    let score = Option.value ~default:0.0 (Hashtbl.find_opt scores k) +. !mult in
    Hashtbl.replace scores k score;
    push k score
  in
  let rec pop_victim () =
    match Pheap.pop heap with
    | None -> None
    | Some e -> (
        match (Hashtbl.find_opt scores e.Pheap.hkey, Hashtbl.find_opt seqs e.Pheap.hkey) with
        | Some s, Some q when s = e.Pheap.pri && q = e.Pheap.seq ->
            (* Still the key's live record: re-push it (the store may
               not actually evict, e.g. when only peeking) and return. *)
            Pheap.push heap e;
            Some e.Pheap.hkey
        | _ -> pop_victim ())
  in
  {
    insert = (fun k ~weight:_ -> bump k);
    access = (fun k -> bump k);
    remove =
      (fun k ->
        Hashtbl.remove scores k;
        Hashtbl.remove seqs k);
    victim = pop_victim;
    resize = (fun _ -> ());
    clear =
      (fun () ->
        Hashtbl.reset scores;
        Hashtbl.reset seqs;
        Pheap.clear heap;
        mult := 1.0;
        seq := 0);
  }

(* ------------------------------------------------------------------ *)
(* GDSF: Greedy-Dual-Size-Frequency                                    *)
(* ------------------------------------------------------------------ *)

(* Priority [L + freq / size]: small, frequently-hit objects rank high;
   a large one-touch object is the cheapest victim.  [L] inflates to
   each victim's priority, so long-resident entries age relative to
   fresh insertions — the classic web-proxy policy (Cherkasova). *)
let make_gdsf () =
  let pris : ('k, float) Hashtbl.t = Hashtbl.create 64 in
  let seqs : ('k, int) Hashtbl.t = Hashtbl.create 64 in
  let freqs : ('k, int) Hashtbl.t = Hashtbl.create 64 in
  let sizes : ('k, int) Hashtbl.t = Hashtbl.create 64 in
  let heap = Pheap.create () in
  let aging = ref 0.0 in
  let seq = ref 0 in
  let live e =
    match Hashtbl.find_opt seqs e.Pheap.hkey with
    | Some q -> q = e.Pheap.seq
    | None -> false
  in
  let push k pri =
    incr seq;
    Hashtbl.replace seqs k !seq;
    Hashtbl.replace pris k pri;
    Pheap.push heap { Pheap.pri; seq = !seq; hkey = k };
    Pheap.bound heap ~live ~count:(Hashtbl.length seqs)
  in
  let rescore k =
    let f = Option.value ~default:0 (Hashtbl.find_opt freqs k) + 1 in
    Hashtbl.replace freqs k f;
    let size = max 1 (Option.value ~default:1 (Hashtbl.find_opt sizes k)) in
    push k (!aging +. (float_of_int f /. float_of_int size))
  in
  let rec pop_victim () =
    match Pheap.pop heap with
    | None -> None
    | Some e -> (
        match (Hashtbl.find_opt pris e.Pheap.hkey, Hashtbl.find_opt seqs e.Pheap.hkey) with
        | Some p, Some q when p = e.Pheap.pri && q = e.Pheap.seq ->
            Pheap.push heap e;
            aging := e.Pheap.pri;
            Some e.Pheap.hkey
        | _ -> pop_victim ())
  in
  {
    insert =
      (fun k ~weight ->
        Hashtbl.replace sizes k weight;
        Hashtbl.remove freqs k;
        rescore k);
    access = rescore;
    remove =
      (fun k ->
        Hashtbl.remove pris k;
        Hashtbl.remove seqs k;
        Hashtbl.remove freqs k;
        Hashtbl.remove sizes k);
    victim = pop_victim;
    resize = (fun _ -> ());
    clear =
      (fun () ->
        Hashtbl.reset pris;
        Hashtbl.reset seqs;
        Hashtbl.reset freqs;
        Hashtbl.reset sizes;
        Pheap.clear heap;
        aging := 0.0;
        seq := 0);
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
