type member = {
  usage : unit -> int;
  shed : unit -> bool;
}

(* Concurrency: a budget may be shared by caches living on different
   domains (the sharded server's --cache-budget).  Accounting is a
   single atomic so charge/release from any domain conserve the total;
   the member list has its own mutex; and [shed_mutex] serialises
   rebalance so two overflowing domains don't both evict for the same
   bytes.  Shed paths call [release] (never [rebalance]), and [release]
   takes no lock, so re-entry from inside a shed cannot deadlock. *)
type t = {
  cap : int;
  used : int Atomic.t;
  mutable members : member list;
  members_mutex : Mutex.t;
  shed_mutex : Mutex.t;
}

let create ~bytes =
  if bytes <= 0 then invalid_arg "Budget.create: bytes <= 0";
  {
    cap = bytes;
    used = Atomic.make 0;
    members = [];
    members_mutex = Mutex.create ();
    shed_mutex = Mutex.create ();
  }

let capacity t = t.cap
let used t = Atomic.get t.used

let register t ~usage ~shed =
  Mutex.lock t.members_mutex;
  t.members <- { usage; shed } :: t.members;
  Mutex.unlock t.members_mutex

(* Shed from the member holding the most bytes; each successful shed
   strictly shrinks [used] (the member's eviction path calls [release]),
   so the loop terminates.  When the fattest member refuses (e.g. down
   to a single pinned entry), fall through to the next.  Only one
   domain rebalances at a time; members are snapshotted outside their
   mutex so a shed callback may register or charge without deadlock. *)
let rebalance t =
  Mutex.lock t.shed_mutex;
  let continue = ref true in
  while Atomic.get t.used > t.cap && !continue do
    Mutex.lock t.members_mutex;
    let members = t.members in
    Mutex.unlock t.members_mutex;
    let by_usage =
      List.sort (fun a b -> compare (b.usage ()) (a.usage ())) members
    in
    continue := List.exists (fun m -> m.shed ()) by_usage
  done;
  Mutex.unlock t.shed_mutex

let charge t bytes =
  ignore (Atomic.fetch_and_add t.used bytes);
  rebalance t

(* Clamp at zero with a CAS loop rather than fetch_and_add: a release
   racing another release must never push the pool negative (that would
   let later charges over-fill), and must never subtract more than is
   actually there. *)
let release t bytes =
  let rec loop () =
    let cur = Atomic.get t.used in
    let next = max 0 (cur - bytes) in
    if not (Atomic.compare_and_set t.used cur next) then loop ()
  in
  if bytes > 0 then loop ()
