module Engine = Aspipe_des.Engine
module Rng = Aspipe_util.Rng
module Trace = Aspipe_grid.Trace
module Skel_sim = Aspipe_skel.Skel_sim
module Mapping = Aspipe_model.Mapping
module Predictor = Aspipe_model.Predictor
module Search = Aspipe_model.Search
module Scenario = Aspipe_core.Scenario
module Policy = Aspipe_core.Policy
module Adaptive = Aspipe_core.Adaptive

let log_src = Logs.Src.create "aspipe.serve" ~doc:"Open-arrival serving driver"

module Log = (val Logs.src_log log_src)

(* Capacity margin over demand for the provisioned mapping. *)
let headroom = 1.2

(* Seconds of expected demand a migration is amortized against: an open
   stream has no finite remainder. *)
let amortize_horizon = 60.0

type report = {
  scenario_name : string;
  autoscaler_name : string;
  trace : Trace.t;
  slo : Slo.spec;
  windows : Slo.window_stats list;
  attainment : float;
  arrivals : int;
  completions : int;
  violations : int;
  p50 : float;
  p99 : float;
  p999 : float;
  mean_sojourn : float;
  max_sojourn : float;
  node_seconds : float;
  mean_nodes : float;
  duration : float;
  initial_mapping : Mapping.t;
  final_mapping : Mapping.t;
  adaptation_count : int;
  policy_evaluations : int;
  failover_count : int;
  items_lost : int;
}

(* Exact nearest-rank quantile of the sorted sample [a.(0)] .. [a.(n - 1)];
   [nan] when empty. *)
(* layout: out of line (DESIGN "Code layout") *)
let[@inline never] quantile_sorted a n q =
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. Float.of_int n)) - 1)))

(* Sorts [a.(0)] .. [a.(n - 1)] ascending with plain float comparisons:
   quicksort around a median of three, insertion sort below 16 values.
   [Array.sort] over a float array boxes both operands of every comparison.
   Sojourns are finite and at least +0., and on such values every correct
   sort yields the same array. *)
let sort_sojourns (a : float array) n =
  let rec sort lo hi =
    (* Sorts [a.(lo)] .. [a.(hi - 1)]. *)
    if hi - lo <= 16 then
      for i = lo + 1 to hi - 1 do
        let v = a.(i) in
        let j = ref i in
        while !j > lo && a.(!j - 1) > v do
          a.(!j) <- a.(!j - 1);
          decr j
        done;
        a.(!j) <- v
      done
    else begin
      let mid = lo + ((hi - lo) / 2) and top = hi - 1 in
      let m =
        if a.(lo) < a.(mid) then
          if a.(mid) < a.(top) then mid else if a.(lo) < a.(top) then top else lo
        else if a.(lo) < a.(top) then lo
        else if a.(mid) < a.(top) then top
        else mid
      in
      let pivot = a.(m) in
      let i = ref lo and j = ref top in
      while !i <= !j do
        while a.(!i) < pivot do
          incr i
        done;
        while a.(!j) > pivot do
          decr j
        done;
        if !i <= !j then begin
          let v = a.(!i) in
          a.(!i) <- a.(!j);
          a.(!j) <- v;
          incr i;
          decr j
        end
      done;
      sort lo (!j + 1);
      sort !i hi
    end
  in
  sort 0 n

let distinct_nodes m = List.length (List.sort_uniq Int.compare (Array.to_list m))

let run ?instrument ?(initial = `Cheapest) ~autoscaler ~arrival ~slo ?(provision_rate = 0.0)
    ~scenario ~seed () =
  let horizon = scenario.Scenario.horizon in
  if not (Float.is_finite horizon) then
    invalid_arg (Printf.sprintf "Serve.run: horizon must be finite (got %g)" horizon);
  if not (Float.is_finite provision_rate && provision_rate >= 0.0) then
    invalid_arg
      (Printf.sprintf "Serve.run: provision_rate must be finite and non-negative (got %g)"
         provision_rate);
  (* Calibration, monitoring and the initial search are the closed-stream
     engine's; the arrival stream is split fifth. *)
  let w = Adaptive.start Adaptive.default_config ?instrument ~scenario ~seed () in
  let arrival_rng = Rng.split w.Adaptive.rng in
  let engine = w.Adaptive.engine in
  let bus = Engine.bus engine in
  (* Runaway guard: a stalled pipeline (dead node, failovers spent) would
     otherwise keep the periodic evaluators alive forever. *)
  let drain_limit = 3.0 *. horizon in
  let processors = Aspipe_grid.Topology.size w.Adaptive.topo in
  let policy = Autoscaler.fresh autoscaler in

  (* Serving-style provisioning: start on the cheapest mapping whose
     predicted rate covers [provision_rate × headroom] (the demand promise),
     not the throughput-maximal one — over-provisioning is exactly the cost
     the autoscalers are being compared on. *)
  let initial_predictor = w.Adaptive.initial_predictor in
  let best = w.Adaptive.initial_search.Search.mapping in
  let initial_mapping =
    match initial with
    | `Best -> best
    | `Cheapest -> (
        match Predictor.cheapest ~required:(provision_rate *. headroom) initial_predictor with
        | Some m -> m
        | None -> best)
  in
  Log.info (fun m ->
      m "[%s/%s] provisioned %s (predicted %.3f items/s for %.3f items/s demand)"
        scenario.Scenario.name (Autoscaler.name autoscaler)
        (Mapping.to_string initial_mapping)
        (Predictor.evaluate initial_predictor initial_mapping)
        provision_rate);

  (* Execution: open stream, latency stamped per item. *)
  let trace = w.Adaptive.trace in
  let meter = Slo.create slo in
  (* The sojourns of the epoch in progress: [epoch.(0 .. in_epoch - 1)]. *)
  let epoch = ref (Array.make 256 0.0) and in_epoch = ref 0 in
  let on_completion ~item:_ ~arrival:stamp =
    let sojourn = Engine.now engine -. stamp in
    Slo.observe meter ~sojourn;
    if !in_epoch = Array.length !epoch then
      epoch := Array.append !epoch (Array.make !in_epoch 0.0);
    !epoch.(!in_epoch) <- sojourn;
    incr in_epoch
  in
  let sim =
    Skel_sim.create ~trace ~arrivals:`External ~on_completion ~rng:w.Adaptive.sim_rng
      ~topo:w.Adaptive.topo ~stages:scenario.Scenario.stages
      ~mapping:(Mapping.to_array initial_mapping)
      ~input:scenario.Scenario.input ()
  in
  let next_item = ref 0 in
  Arrival.schedule ~until:horizon ~rng:arrival_rng ~engine arrival ~f:(fun () ->
      Skel_sim.inject sim ~item:!next_item;
      incr next_item);
  let backlog () = Skel_sim.items_injected sim - Skel_sim.items_completed sim in
  let live () =
    let now = Engine.now engine in
    now < drain_limit && (now < horizon || backlog () > 0)
  in

  (* Node-seconds: the integral over time of how many distinct nodes the
     adopted mapping occupies — the provisioned-cost axis every autoscaler
     is scored on. Migration overlap is not double-charged; the clock
     switches to the target mapping's footprint at commit. *)
  let node_seconds = ref 0.0 in
  let ns_since = ref 0.0 in
  let ns_nodes = ref (distinct_nodes (Mapping.to_array initial_mapping)) in
  let account_nodes_until_now () =
    let now = Engine.now engine in
    node_seconds := !node_seconds +. (Float.of_int !ns_nodes *. (now -. !ns_since));
    ns_since := now
  in
  let adopt_mapping target =
    account_nodes_until_now ();
    ns_nodes := distinct_nodes target
  in

  (* SLO windows close on their own periodic clock and are published as
     control events, so any sink (meters, JSONL, Perfetto) sees attainment
     as it happens. *)
  Engine.periodic engine ~every:slo.Slo.window (fun () ->
      let now = Engine.now engine in
      let stats = Slo.close_window meter ~now in
      Aspipe_obs.Bus.emit bus
        (Aspipe_obs.Event.Slo_window
           {
             window = stats.Slo.index;
             until = stats.Slo.until;
             completions = stats.Slo.completions;
             violations = stats.Slo.violations;
             attained = stats.Slo.attained;
           });
      live ());

  (* The serving half of each epoch's context: the observed arrival rate,
     the windowed p99 and its slope, and a migration amortized against the
     backlog plus the demand expected over [amortize_horizon]. *)
  let last_eval_injected = ref 0 in
  let prev_p99 = ref nan in
  let context ~window predictor =
    let injected = Skel_sim.items_injected sim in
    let arrival_rate =
      if window <= 0.0 then 0.0 else Float.of_int (injected - !last_eval_injected) /. window
    in
    last_eval_injected := injected;
    sort_sojourns !epoch !in_epoch;
    let p99 = quantile_sorted !epoch !in_epoch 0.99 in
    in_epoch := 0;
    let sojourn_slope =
      if Float.is_nan p99 || Float.is_nan !prev_p99 || window <= 0.0 then 0.0
      else (p99 -. !prev_p99) /. window
    in
    prev_p99 := p99;
    ( backlog () + int_of_float (Float.ceil (arrival_rate *. amortize_horizon)),
      Some
        {
          Policy.backlog = backlog ();
          arrival_rate;
          p99_sojourn = p99;
          sojourn_slope;
          slo_threshold = slo.Slo.threshold;
          choose_cheapest =
            (fun ~headroom -> Predictor.cheapest ~required:(arrival_rate *. headroom) predictor);
        } )
  in
  let tally =
    Adaptive.epochs w policy sim
      ~adopted:(Predictor.evaluate initial_predictor initial_mapping)
      ~live ~context ~on_commit:adopt_mapping
  in

  (* The serving run drives the engine directly: arrivals stop at the
     horizon, the pipeline drains, the self-rescheduling components wind
     down, and the queue empties on its own. *)
  Engine.run engine;
  account_nodes_until_now ();

  let sojourns = Array.map snd (Trace.sojourns trace) in
  let completed = Array.length sojourns in
  sort_sojourns sojourns completed;
  let elapsed = Engine.now engine in
  {
    scenario_name = scenario.Scenario.name;
    autoscaler_name = Autoscaler.name autoscaler;
    trace;
    slo;
    windows = Slo.windows meter;
    attainment = Slo.attainment meter;
    arrivals = Skel_sim.items_injected sim;
    completions = Skel_sim.items_completed sim;
    violations = Slo.violations_total meter;
    p50 = quantile_sorted sojourns completed 0.5;
    p99 = quantile_sorted sojourns completed 0.99;
    p999 = quantile_sorted sojourns completed 0.999;
    mean_sojourn = Trace.mean_sojourn trace;
    max_sojourn = (if completed = 0 then nan else sojourns.(completed - 1));
    node_seconds = !node_seconds;
    mean_nodes = (if elapsed <= 0.0 then 0.0 else !node_seconds /. elapsed);
    duration = Trace.makespan trace;
    initial_mapping;
    final_mapping = Mapping.of_array ~processors (Skel_sim.mapping sim);
    adaptation_count = tally.Adaptive.adaptations;
    policy_evaluations = tally.Adaptive.evaluations;
    failover_count = tally.Adaptive.failovers;
    items_lost = Skel_sim.items_lost_total sim;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>serving %s under %s (%a):@ %d arrivals, %d completions, %d SLO violations@ sojourn \
     p50 %.3fs p99 %.3fs p999 %.3fs (mean %.3fs)@ attainment %.1f%% over %d windows@ cost %.0f \
     node-seconds (mean %.2f nodes), %d adaptations%t@]"
    r.scenario_name r.autoscaler_name Slo.pp_spec r.slo r.arrivals r.completions r.violations
    r.p50 r.p99 r.p999 r.mean_sojourn
    (100.0 *. r.attainment)
    (List.length r.windows) r.node_seconds r.mean_nodes r.adaptation_count
    (fun ppf ->
      if r.failover_count > 0 || r.items_lost > 0 then
        Format.fprintf ppf "@ %d failovers, %d items lost" r.failover_count r.items_lost)
