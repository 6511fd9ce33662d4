module Engine = Aspipe_des.Engine
module Rng = Aspipe_util.Rng
module Topology = Aspipe_grid.Topology
module Node = Aspipe_grid.Node
module Monitor = Aspipe_grid.Monitor
module Trace = Aspipe_grid.Trace
module Skel_sim = Aspipe_skel.Skel_sim
module Mapping = Aspipe_model.Mapping
module Costspec = Aspipe_model.Costspec
module Predictor = Aspipe_model.Predictor
module Search = Aspipe_model.Search
module Scenario = Aspipe_core.Scenario
module Policy = Aspipe_core.Policy
module Calibration = Aspipe_core.Calibration
module Migration = Aspipe_core.Migration

let log_src = Logs.Src.create "aspipe.serve" ~doc:"Open-arrival serving driver"

module Log = (val Logs.src_log log_src)

type config = {
  evaluator : Predictor.kind;
  monitor_every : float;
  evaluate_every : float;
  sensor : Monitor.sensor_spec;
  probes : int;
  measurement_noise : float;
  migration : Migration.t;
  fix_first_on : int option;
  failover : Policy.failover;
  headroom : float;
  amortize_horizon : float;
  queue_capacity : int option;
}

let default_config =
  {
    evaluator = Predictor.Analytic;
    monitor_every = 5.0;
    evaluate_every = 10.0;
    sensor = Monitor.default_sensor;
    probes = 5;
    measurement_noise = 0.01;
    migration = Migration.default;
    fix_first_on = None;
    failover = Policy.default_failover;
    headroom = 1.2;
    amortize_horizon = 60.0;
    queue_capacity = None;
  }

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

(* Exact nearest-rank quantile of a sorted sample; [nan] when empty. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. Float.of_int n)) - 1)))

let distinct_nodes m = List.length (List.sort_uniq Int.compare (Array.to_list m))

let run ?(config = default_config) ?instrument ?(max_items = max_int)
    ?(initial = `Cheapest) ~autoscaler ~arrival ~slo ?(provision_rate = 0.0) ~scenario
    ~seed () =
  let root_rng = Rng.create seed in
  let env_rng = Rng.split root_rng in
  let calib_rng = Rng.split root_rng in
  let sim_rng = Rng.split root_rng in
  let monitor_rng = Rng.split root_rng in
  let arrival_rng = Rng.split root_rng in
  let topo = Scenario.build scenario ~rng:env_rng in
  let engine = Topology.engine topo in
  let bus = Engine.bus engine in
  (match instrument with Some f -> f bus | None -> ());
  let stages = scenario.Scenario.stages in
  let input = scenario.Scenario.input in
  let horizon = scenario.Scenario.horizon in
  (* Runaway guard: a stalled pipeline (dead node, failover disabled) would
     otherwise keep the periodic evaluators alive forever. *)
  let drain_limit = 3.0 *. horizon in
  let processors = Topology.size topo in
  let policy = Autoscaler.fresh autoscaler in

  (* Calibration and monitoring, exactly as in the closed-stream engine. *)
  let calibration =
    Calibration.run ~probes:config.probes ~measurement_noise:config.measurement_noise ~bus
      ~rng:calib_rng stages
  in
  let calibrated_work = Calibration.work_vector calibration in
  let monitor =
    Monitor.create ~sensor:config.sensor ~suspect_after:config.failover.Policy.suspect_after
      ~rng:monitor_rng ~every:config.monitor_every ~horizon topo
  in
  let spec_from ?link_quality ?user_link_quality availability =
    Costspec.with_stage_work
      (Costspec.of_topology ~availability ?link_quality ?user_link_quality ~topo ~stages ~input
         ())
      calibrated_work
  in
  let belief_spec () =
    spec_from
      ~link_quality:(fun ~src ~dst -> Monitor.link_forecast monitor ~src ~dst)
      ~user_link_quality:(Monitor.user_link_forecast monitor)
      (fun i -> if Monitor.suspected monitor i then 1e-9 else Monitor.node_forecast monitor i)
  in

  (* Serving-style provisioning: start on the cheapest mapping whose
     predicted rate covers [provision_rate × headroom] (the demand promise),
     not the throughput-maximal one — over-provisioning is exactly the cost
     the autoscalers are being compared on. *)
  let initial_spec = spec_from (fun i -> Node.availability (Topology.node topo i)) in
  let initial_predictor = Predictor.make ~kind:config.evaluator initial_spec in
  (* The later searches are seeded with the running mapping, which prunes
     the branch-and-bound without changing its answer. *)
  let choose ?incumbent predictor =
    Predictor.choose ?fix_first_on:config.fix_first_on ?incumbent predictor
  in
  let initial_search = choose initial_predictor in
  let initial_mapping =
    match initial with
    | `Best -> initial_search.Search.mapping
    | `Cheapest -> (
        match
          Predictor.cheapest ?fix_first_on:config.fix_first_on
            ~required:(provision_rate *. config.headroom) initial_predictor
        with
        | Some m -> m
        | None -> initial_search.Search.mapping)
  in
  Log.info (fun m ->
      m "[%s/%s] provisioned %s (predicted %.3f items/s for %.3f items/s demand)"
        scenario.Scenario.name (Autoscaler.name autoscaler)
        (Mapping.to_string initial_mapping)
        (Predictor.evaluate initial_predictor initial_mapping)
        provision_rate);

  (* Execution: open stream, latency stamped per item. *)
  let trace = Trace.create () in
  let meter = Slo.create slo in
  let window_sojourns = ref [] in
  let on_completion ~item:_ ~arrival:stamp =
    let sojourn = Engine.now engine -. stamp in
    Slo.observe meter ~sojourn;
    window_sojourns := sojourn :: !window_sojourns
  in
  let sim =
    Skel_sim.create ?queue_capacity:config.queue_capacity ~trace ~arrivals:`External
      ~on_completion ~rng:sim_rng ~topo ~stages
      ~mapping:(Mapping.to_array initial_mapping)
      ~input ()
  in
  let next_item = ref 0 in
  Arrival.schedule ~max_items ~until:horizon ~rng:arrival_rng ~engine arrival
    ~f:(fun () ->
      Skel_sim.inject sim ~item:!next_item;
      incr next_item);
  let backlog () = Skel_sim.items_injected sim - Skel_sim.items_completed sim in

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
      now < drain_limit && (now < horizon || backlog () > 0));

  let adopted_throughput = ref (Predictor.evaluate initial_predictor initial_mapping) in
  let last_eval_time = ref 0.0 in
  let last_eval_completed = ref 0 in
  let last_eval_injected = ref 0 in
  let prev_p99 = ref nan in
  let evaluations = ref 0 in
  let adaptation_count = ref 0 in
  let failover_count = ref 0 in
  let last_failover = ref neg_infinity in
  let try_failover () =
    let current = Skel_sim.mapping sim in
    let suspect_mapped =
      config.failover.Policy.enabled
      && Array.exists (fun node -> Monitor.suspected monitor node) current
    in
    if
      suspect_mapped
      && Engine.now engine -. !last_failover >= config.failover.Policy.backoff
      && !failover_count < config.failover.Policy.max_failovers
    then begin
      let predictor = Predictor.make ~kind:config.evaluator (belief_spec ()) in
      let result = choose ~incumbent:(Mapping.of_array ~processors current) predictor in
      let target = Mapping.to_array result.Search.mapping in
      if target <> current then begin
        let replayed = List.length (Skel_sim.lost_items sim) in
        adopt_mapping target;
        Skel_sim.failover sim target;
        incr failover_count;
        last_failover := Engine.now engine;
        adopted_throughput := result.Search.score;
        Aspipe_obs.Bus.emit bus
          (Aspipe_obs.Event.Failover_committed
             { mapping_before = current; mapping_after = target; items_redispatched = replayed });
        true
      end
      else false
    end
    else false
  in
  let evaluate () =
    let now = Engine.now engine in
    if now >= drain_limit || ((not (backlog () > 0)) && now >= horizon) then false
    else if Skel_sim.migrating sim then true
    else if try_failover () then true
    else begin
      incr evaluations;
      let completed = Skel_sim.items_completed sim in
      let injected = Skel_sim.items_injected sim in
      let window = now -. !last_eval_time in
      let observed =
        if window <= 0.0 then 0.0
        else Float.of_int (completed - !last_eval_completed) /. window
      in
      let arrival_rate =
        if window <= 0.0 then 0.0
        else Float.of_int (injected - !last_eval_injected) /. window
      in
      last_eval_time := now;
      last_eval_completed := completed;
      last_eval_injected := injected;
      let sorted = Array.of_list !window_sojourns in
      Array.sort Float.compare sorted;
      window_sojourns := [];
      let p99 = quantile_sorted sorted 0.99 in
      let sojourn_slope =
        if Float.is_nan p99 || Float.is_nan !prev_p99 || window <= 0.0 then 0.0
        else (p99 -. !prev_p99) /. window
      in
      prev_p99 := p99;
      let spec = belief_spec () in
      let predictor = Predictor.make ~kind:config.evaluator spec in
      let current = Mapping.of_array ~processors (Skel_sim.mapping sim) in
      let ctx =
        {
          Policy.time = now;
          current;
          predictor;
          observed_throughput = observed;
          adopted_throughput = !adopted_throughput;
          (* Open streams have no finite remainder; amortize migrations
             against the backlog plus the demand expected over the
             amortization horizon. *)
          items_remaining =
            backlog () + int_of_float (Float.ceil (arrival_rate *. config.amortize_horizon));
          migration_stall =
            (fun target -> Migration.stall_seconds config.migration ~spec ~stages ~current ~target);
          choose_best = (fun () -> choose ~incumbent:current predictor);
          serving =
            Some
              {
                Policy.backlog = backlog ();
                arrival_rate;
                p99_sojourn = p99;
                sojourn_slope;
                slo_threshold = slo.Slo.threshold;
                choose_cheapest =
                  (fun ~headroom ->
                    Predictor.cheapest ?fix_first_on:config.fix_first_on
                      ~required:(arrival_rate *. headroom) predictor);
              };
        }
      in
      Aspipe_obs.Bus.emit bus
        (Aspipe_obs.Event.Adaptation_considered
           {
             mapping = Mapping.to_array current;
             observed_throughput = observed;
             adopted_throughput = !adopted_throughput;
           });
      (match Policy.decide policy ctx with
      | Policy.Keep ->
          Aspipe_obs.Bus.emit bus
            (Aspipe_obs.Event.Adaptation_rejected
               { mapping = Mapping.to_array current; observed_throughput = observed })
      | Policy.Remap target ->
          let stall = Migration.stall_seconds config.migration ~spec ~stages ~current ~target in
          let gain = Predictor.evaluate predictor target -. Predictor.evaluate predictor current in
          adopt_mapping (Mapping.to_array target);
          ignore (Skel_sim.remap sim (Mapping.to_array target));
          incr adaptation_count;
          let mapping_before = Mapping.to_array current and mapping_after = Mapping.to_array target in
          Trace.record_adaptation trace
            {
              Trace.at = now;
              mapping_before;
              mapping_after;
              predicted_gain = gain;
              migration_cost = stall;
            };
          Aspipe_obs.Bus.emit bus
            (Aspipe_obs.Event.Adaptation_committed
               { mapping_before; mapping_after; predicted_gain = gain; migration_cost = stall });
          adopted_throughput := Predictor.evaluate predictor target;
          Log.info (fun m ->
              m "[%s/%s] t=%.1f remap %s -> %s (%d in flight, p99 %.2fs)"
                scenario.Scenario.name (Autoscaler.name autoscaler) now
                (Mapping.to_string current) (Mapping.to_string target)
                (backlog ()) p99));
      true
    end
  in
  Engine.periodic engine ~every:config.evaluate_every evaluate;

  (* The serving run drives the engine directly: arrivals stop at the
     horizon, the pipeline drains, the self-rescheduling components wind
     down, and the queue empties on its own. *)
  Engine.run engine;
  account_nodes_until_now ();

  let sojourns = Array.map snd (Trace.sojourns trace) in
  Array.sort Float.compare sojourns;
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
    p50 = quantile_sorted sojourns 0.5;
    p99 = quantile_sorted sojourns 0.99;
    p999 = quantile_sorted sojourns 0.999;
    mean_sojourn = Trace.mean_sojourn trace;
    max_sojourn =
      (if Array.length sojourns = 0 then nan else sojourns.(Array.length sojourns - 1));
    node_seconds = !node_seconds;
    mean_nodes = (if elapsed <= 0.0 then 0.0 else !node_seconds /. elapsed);
    duration = Trace.makespan trace;
    initial_mapping;
    final_mapping = Mapping.of_array ~processors (Skel_sim.mapping sim);
    adaptation_count = !adaptation_count;
    policy_evaluations = !evaluations;
    failover_count = !failover_count;
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
