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

let log_src = Logs.Src.create "aspipe.adaptive" ~doc:"Adaptive pipeline engine"

module Log = (val Logs.src_log log_src)

type config = {
  policy : unit -> Policy.t;
  evaluator : Predictor.kind;
  monitor_every : float;
  evaluate_every : float;
  sensor : Monitor.sensor_spec;
  probes : int;
  measurement_noise : float;
  initial_resource_reading : bool;
  max_failovers : int;
}

let default_config =
  {
    policy = (fun () -> Policy.threshold ());
    evaluator = Predictor.Analytic;
    monitor_every = 5.0;
    evaluate_every = 10.0;
    sensor = Monitor.default_sensor;
    probes = 5;
    measurement_noise = 0.01;
    initial_resource_reading = true;
    max_failovers = 16;
  }

(* Seconds after a committed failover before another may trigger: guards
   against remap storms while suspicion settles. *)
let failover_backoff = 10.0

type report = {
  scenario_name : string;
  policy_name : string;
  trace : Trace.t;
  calibration : Calibration.t;
  initial_mapping : Mapping.t;
  final_mapping : Mapping.t;
  makespan : float;
  throughput : float;
  adaptation_count : int;
  policy_evaluations : int;
  monitor_samples : int;
  failover_count : int;
  items_lost : int;
  items_redispatched : int;
}

type world = {
  config : config;
  scenario : Scenario.t;
  rng : Rng.t;
  sim_rng : Rng.t;
  topo : Topology.t;
  engine : Engine.t;
  calibration : Calibration.t;
  work : float array;
  monitor : Monitor.t;
  trace : Trace.t;
  initial_predictor : Predictor.t;
  initial_search : Search.result;
}

let spec_from ~topo ~scenario ~work ?link_quality ?user_link_quality availability =
  Costspec.with_stage_work
    (Costspec.of_topology ~availability ?link_quality ?user_link_quality ~topo
       ~stages:scenario.Scenario.stages ~input:scenario.Scenario.input ())
    work

(* Suspected nodes get availability ~0 rather than their forecast: a dead
   node answers no sensor, so its forecast is stale pre-crash history that
   would happily invite the search to map back onto the corpse. Suspicion
   is observable monitor state, so the performance policy is entitled to
   it too — and fault-free runs never suspect anyone, leaving this path
   bit-identical to the pre-fault build. *)
let belief_spec w =
  let monitor = w.monitor in
  spec_from ~topo:w.topo ~scenario:w.scenario ~work:w.work
    ~link_quality:(fun ~src ~dst -> Monitor.link_forecast monitor ~src ~dst)
    ~user_link_quality:(Monitor.user_link_forecast monitor)
    (fun i -> if Monitor.suspected monitor i then 1e-9 else Monitor.node_forecast monitor i)

let start config ?instrument ~scenario ~seed () =
  let rng = Rng.create seed in
  let env_rng = Rng.split rng in
  let calib_rng = Rng.split rng in
  let sim_rng = Rng.split rng in
  let monitor_rng = Rng.split rng in
  let topo = Scenario.build scenario ~rng:env_rng in
  let engine = Topology.engine topo in
  let bus = Engine.bus engine in
  (* Telemetry sinks attach before anything observable happens, so they see
     the calibration samples and monitor readings behind every decision. *)
  (match instrument with Some f -> f bus | None -> ());
  let calibration =
    Calibration.run ~probes:config.probes ~measurement_noise:config.measurement_noise ~bus
      ~rng:calib_rng scenario.Scenario.stages
  in
  let work = Calibration.work_vector calibration in
  let monitor =
    Monitor.create ~sensor:config.sensor ~rng:monitor_rng ~every:config.monitor_every
      ~horizon:scenario.Scenario.horizon topo
  in
  let initial_spec =
    if config.initial_resource_reading then
      spec_from ~topo ~scenario ~work (fun i -> Node.availability (Topology.node topo i))
    else
      spec_from ~topo ~scenario ~work
        ~link_quality:(fun ~src:_ ~dst:_ -> 1.0)
        ~user_link_quality:(fun _ -> 1.0)
        (fun _ -> 1.0)
  in
  let initial_predictor = Predictor.make ~kind:config.evaluator initial_spec in
  {
    config;
    scenario;
    rng;
    sim_rng;
    topo;
    engine;
    calibration;
    work;
    monitor;
    trace = Trace.create ();
    initial_predictor;
    initial_search = Predictor.choose initial_predictor;
  }

type tally = { mutable evaluations : int; mutable adaptations : int; mutable failovers : int }

let epochs w policy sim ~adopted ~live ~context ~on_commit =
  let { config; scenario; engine; monitor; trace; _ } = w in
  let bus = Engine.bus engine in
  let stages = scenario.Scenario.stages in
  let processors = Topology.size w.topo in
  let label = scenario.Scenario.name ^ "/" ^ Policy.name policy in
  let tally = { evaluations = 0; adaptations = 0; failovers = 0 } in
  let adopted = ref adopted in
  let last_eval_time = ref 0.0 in
  let last_eval_completed = ref 0 in
  let last_failover = ref neg_infinity in
  (* Failure response, checked before the performance policy: a suspected
     node holding a stage makes throughput arguments moot — the workload
     simply never finishes without a re-map. The search is re-run over the
     belief spec with suspects' availability crushed to ~0, which makes it
     route around the dead nodes with the same machinery that balances the
     live ones. The later searches are seeded with the running mapping,
     which prunes the branch-and-bound without changing its answer. *)
  let try_failover () =
    let current = Skel_sim.mapping sim in
    if
      Array.exists (fun node -> Monitor.suspected monitor node) current
      && Engine.now engine -. !last_failover >= failover_backoff
      && tally.failovers < config.max_failovers
    then begin
      let predictor = Predictor.make ~kind:config.evaluator (belief_spec w) in
      let result =
        Predictor.choose ~incumbent:(Mapping.of_array ~processors current) predictor
      in
      let target = Mapping.to_array result.Search.mapping in
      if target <> current then begin
        let replayed = List.length (Skel_sim.lost_items sim) in
        on_commit target;
        ignore (Skel_sim.remap sim target);
        tally.failovers <- tally.failovers + 1;
        last_failover := Engine.now engine;
        adopted := result.Search.score;
        Aspipe_obs.Bus.emit bus
          (Aspipe_obs.Event.Failover_committed
             { mapping_before = current; mapping_after = target; items_redispatched = replayed });
        Log.info (fun m ->
            m "[%s] t=%.1f failover %s -> %s (%d checkpointed items replayed)" label
              (Engine.now engine)
              (Mapping.to_string (Mapping.of_array ~processors current))
              (Mapping.to_string result.Search.mapping)
              replayed);
        true
      end
      else false
    end
    else false
  in
  let step () =
    if not (live ()) then false
    else if Skel_sim.migrating sim then true (* let the move settle first *)
    else if try_failover () then true
    else begin
      tally.evaluations <- tally.evaluations + 1;
      let now = Engine.now engine in
      let completed = Skel_sim.items_completed sim in
      let window = now -. !last_eval_time in
      let observed =
        if window <= 0.0 then 0.0
        else Float.of_int (completed - !last_eval_completed) /. window
      in
      last_eval_time := now;
      last_eval_completed := completed;
      let spec = belief_spec w in
      let predictor = Predictor.make ~kind:config.evaluator spec in
      let current = Mapping.of_array ~processors (Skel_sim.mapping sim) in
      let items_remaining, serving = context ~window predictor in
      let stall target =
        Migration.stall_seconds Migration.default ~spec ~stages ~current ~target
      in
      let ctx =
        {
          Policy.time = now;
          current;
          predictor;
          observed_throughput = observed;
          adopted_throughput = !adopted;
          items_remaining;
          migration_stall = stall;
          choose_best = (fun () -> Predictor.choose ~incumbent:current predictor);
          serving;
        }
      in
      Aspipe_obs.Bus.emit bus
        (Aspipe_obs.Event.Adaptation_considered
           {
             mapping = Mapping.to_array current;
             observed_throughput = observed;
             adopted_throughput = !adopted;
           });
      (match Policy.decide policy ctx with
      | Policy.Keep ->
          Aspipe_obs.Bus.emit bus
            (Aspipe_obs.Event.Adaptation_rejected
               { mapping = Mapping.to_array current; observed_throughput = observed });
          Log.debug (fun m ->
              m "[%s] t=%.1f keep %s (observed %.3f, adopted %.3f)" label now
                (Mapping.to_string current) observed !adopted)
      | Policy.Remap target ->
          let stall = stall target in
          let gain = Predictor.evaluate predictor target -. Predictor.evaluate predictor current in
          let mapping_before = Mapping.to_array current and mapping_after = Mapping.to_array target in
          on_commit mapping_after;
          ignore (Skel_sim.remap sim mapping_after);
          tally.adaptations <- tally.adaptations + 1;
          (* The trace is written directly, not subscribed to the bus, so
             the per-item emits stay off when no sink listens. *)
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
          adopted := Predictor.evaluate predictor target;
          Log.info (fun m ->
              m "[%s] t=%.1f remap %s -> %s (gain %.3f items/s, stall %.2f s)" label now
                (Mapping.to_string current) (Mapping.to_string target) gain stall));
      true
    end
  in
  Engine.periodic engine ~every:config.evaluate_every step;
  tally

let run ?(config = default_config) ?instrument ~scenario ~seed () =
  let w = start config ?instrument ~scenario ~seed () in
  let policy = config.policy () in
  let initial_search = w.initial_search in
  let initial_mapping = initial_search.Search.mapping in
  Log.info (fun m ->
      m "[%s] initial mapping %s (predicted %.4f items/s, %d candidates scored)"
        scenario.Scenario.name
        (Mapping.to_string initial_mapping)
        initial_search.Search.score initial_search.Search.evaluated);
  let sim =
    Skel_sim.create ~rng:w.sim_rng ~topo:w.topo ~stages:scenario.Scenario.stages
      ~mapping:(Mapping.to_array initial_mapping) ~input:scenario.Scenario.input ~trace:w.trace ()
  in
  let tally =
    epochs w policy sim ~adopted:initial_search.Search.score
      ~live:(fun () -> not (Skel_sim.finished sim))
      ~context:(fun ~window:_ _ -> (Skel_sim.items_total sim - Skel_sim.items_completed sim, None))
      ~on_commit:ignore
  in
  Skel_sim.run_to_completion sim;
  {
    scenario_name = scenario.Scenario.name;
    policy_name = Policy.name policy;
    trace = w.trace;
    calibration = w.calibration;
    initial_mapping;
    final_mapping = Mapping.of_array ~processors:(Topology.size w.topo) (Skel_sim.mapping sim);
    makespan = Trace.makespan w.trace;
    throughput = Trace.throughput w.trace;
    adaptation_count = tally.adaptations;
    policy_evaluations = tally.evaluations;
    monitor_samples = Monitor.samples_taken w.monitor;
    failover_count = tally.failovers;
    items_lost = Skel_sim.items_lost_total sim;
    items_redispatched = Skel_sim.items_redispatched_total sim;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>scenario %s, policy %s:@ initial %s -> final %s@ makespan %.2f s, throughput %.4f \
     items/s@ %d adaptations over %d evaluations (%d monitor samples)%t@]"
    r.scenario_name r.policy_name
    (Mapping.to_string r.initial_mapping)
    (Mapping.to_string r.final_mapping)
    r.makespan r.throughput r.adaptation_count r.policy_evaluations r.monitor_samples
    (fun ppf ->
      if r.failover_count > 0 || r.items_lost > 0 then
        Format.fprintf ppf "@ %d failovers; %d items lost, %d re-dispatched" r.failover_count
          r.items_lost r.items_redispatched)
