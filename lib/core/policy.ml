module Mapping = Aspipe_model.Mapping
module Predictor = Aspipe_model.Predictor
module Search = Aspipe_model.Search

type serving = {
  backlog : int;
  arrival_rate : float;
  p99_sojourn : float;
  sojourn_slope : float;
  slo_threshold : float;
  choose_cheapest : headroom:float -> Mapping.t option;
}

type context = {
  time : float;
  current : Mapping.t;
  predictor : Predictor.t;
  observed_throughput : float;
  adopted_throughput : float;
  items_remaining : int;
  migration_stall : Mapping.t -> float;
  choose_best : unit -> Search.result;
  serving : serving option;
}

type decision = Keep | Remap of Mapping.t

type t = { name : string; decide : context -> decision }

let name t = t.name
let decide t ctx = t.decide ctx

let never () = { name = "never"; decide = (fun _ -> Keep) }

(* True when no mapping can clear [min_gain] over the current one, so the
   search below could only end in Keep. The search's winner scores at most
   the predictor's bound, and the gain test accepts it only above
   [c *. (1 + min_gain)]; the two round apart by a few ulps, which the
   1e-9 relative margin covers. The [Ctmc] kind's bound is [infinity], so
   it pays no extra evaluation. *)
let cannot_gain ~min_gain ctx =
  let bound = Predictor.upper_bound ctx.predictor in
  bound < infinity
  &&
  let current_rate = Predictor.evaluate ctx.predictor ctx.current in
  current_rate > 0.0 && current_rate < infinity
  && bound < current_rate *. (1.0 +. min_gain) *. (1.0 -. 1e-9)

(* Shared gain/amortization test: switch to the search's winner only if the
   relative improvement clears [min_gain] and the time saved on the items
   still to flow exceeds the migration stall. *)
let consider_switch ~min_gain ctx =
  if cannot_gain ~min_gain ctx then Keep
  else begin
    let result = ctx.choose_best () in
    let candidate = result.Search.mapping in
    if Mapping.equal candidate ctx.current then Keep
    else begin
      let current_rate = Predictor.evaluate ctx.predictor ctx.current in
      let candidate_rate = result.Search.score in
      if current_rate <= 0.0 then Remap candidate
      else begin
        let gain = (candidate_rate -. current_rate) /. current_rate in
        if gain <= min_gain then Keep
        else begin
          let remaining = Float.of_int ctx.items_remaining in
          let saved = remaining *. ((1.0 /. current_rate) -. (1.0 /. candidate_rate)) in
          if saved > ctx.migration_stall candidate then Remap candidate else Keep
        end
      end
    end
  end

let periodic_best () =
  { name = "periodic"; decide = (fun ctx -> consider_switch ~min_gain:0.1 ctx) }

let threshold ?(drop = 0.25) ?(cooldown = 30.0) () =
  let last_adaptation = ref neg_infinity in
  let decide ctx =
    let in_cooldown = ctx.time -. !last_adaptation < cooldown in
    let degraded =
      ctx.adopted_throughput > 0.0
      && ctx.observed_throughput < (1.0 -. drop) *. ctx.adopted_throughput
    in
    if in_cooldown || not degraded then Keep
    else begin
      match consider_switch ~min_gain:0.1 ctx with
      | Keep -> Keep
      | Remap m ->
          last_adaptation := ctx.time;
          Remap m
    end
  in
  { name = "threshold"; decide }

let always_best () =
  { name = "always_best"; decide = (fun ctx -> consider_switch ~min_gain:0.01 ctx) }

(* Serving-only triggers: both are inert (Keep) when the context carries no
   serving signals, so they compose with the closed-stream engine without a
   special case there. Both scale down to cover the arrival rate with 20 %
   headroom, scale up at a 2 % gain and sleep 30 s after acting. *)

let serving_cooldown = 30.0

let scale_down last ctx (s : serving) =
  match s.choose_cheapest ~headroom:1.2 with
  | Some m when not (Mapping.equal m ctx.current) ->
      last := ctx.time;
      Remap m
  | _ -> Keep

let scale_up last ctx =
  match consider_switch ~min_gain:0.02 ctx with
  | Keep -> Keep
  | Remap m ->
      last := ctx.time;
      Remap m

let queue_length ?(high = 64) ?(low = 8) () =
  let last = ref neg_infinity in
  let decide ctx =
    match ctx.serving with
    | None -> Keep
    | Some s ->
        if ctx.time -. !last < serving_cooldown then Keep
        else if s.backlog > high then scale_up last ctx
        else if s.backlog < low then scale_down last ctx s
        else Keep
  in
  { name = "queue_length"; decide }

let latency_gradient () =
  let last = ref neg_infinity in
  let decide ctx =
    match ctx.serving with
    | None -> Keep
    | Some s ->
        if ctx.time -. !last < serving_cooldown || Float.is_nan s.p99_sojourn then Keep
        else begin
          (* Act before the breach: trigger when p99 is already inside the
             0.8 margin, or when its slope projects it past the SLO bound
             within one cooldown. *)
          let projected = s.p99_sojourn +. (s.sojourn_slope *. serving_cooldown) in
          if s.p99_sojourn > 0.8 *. s.slo_threshold || projected > s.slo_threshold then
            scale_up last ctx
          else if s.p99_sojourn < 0.4 *. s.slo_threshold && s.sojourn_slope <= 0.0 then
            scale_down last ctx s
          else Keep
        end
  in
  { name = "latency_gradient"; decide }
