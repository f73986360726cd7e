(* Latency SLO evaluator over windowed latency histograms.  Burn is
   the fraction of recent traffic-bearing windows whose windowed
   percentile exceeded the target; empty windows are skipped so an idle
   server neither heals nor burns its budget. *)

type state = Healthy | Degraded | Breached

type t = {
  quantile : float;  (* e.g. 99. *)
  target_ms : float;
  budget : float;  (* allowed violating fraction, e.g. 0.05 *)
  horizon : int;  (* windows considered *)
  mutable recent : bool list;  (* newest first: window violated?  traffic-bearing only *)
  mutable violations : int;  (* violations within [recent] *)
}

let create ?(quantile = 99.) ?(target_ms = 50.) ?(budget = 0.05) ?(horizon = 60) () =
  if not (quantile > 0. && quantile <= 100.) then
    invalid_arg "Obs.Slo.create: quantile outside (0, 100]";
  if not (target_ms > 0.) then invalid_arg "Obs.Slo.create: target <= 0";
  if not (budget >= 0. && budget <= 1.) then
    invalid_arg "Obs.Slo.create: budget outside [0, 1]";
  if horizon < 1 then invalid_arg "Obs.Slo.create: horizon < 1";
  { quantile; target_ms; budget; horizon; recent = []; violations = 0 }

let quantile t = t.quantile
let target_ms t = t.target_ms
let budget t = t.budget

let observe t h =
  if Histogram.count h > 0 then begin
    let violated = Histogram.percentile h t.quantile *. 1000. > t.target_ms in
    if violated then t.violations <- t.violations + 1;
    let recent = violated :: t.recent in
    (* Evict beyond the horizon, keeping the violation count exact. *)
    let rec trim i = function
      | [] -> []
      | x :: tl when i >= t.horizon ->
          if x then t.violations <- t.violations - 1;
          trim (i + 1) tl
      | x :: tl -> x :: trim (i + 1) tl
    in
    t.recent <- trim 0 recent
  end

let windows t = List.length t.recent

let burn t =
  let n = List.length t.recent in
  if n = 0 then 0. else float_of_int t.violations /. float_of_int n

(* Up to the budget is the contract working as specified; past it the
   budget is burning (degraded); at 3x the budget or with a zero budget
   violated, the objective is simply not being met. *)
let state t =
  let b = burn t in
  if b <= t.budget then Healthy
  else if b < 3. *. t.budget then Degraded
  else Breached

let state_code t =
  match state t with Healthy -> 0 | Degraded -> 1 | Breached -> 2
