module Engine = Aspipe_des.Engine
module Rng = Aspipe_util.Rng
module Topology = Aspipe_grid.Topology
module Node = Aspipe_grid.Node
module Monitor = Aspipe_grid.Monitor
module Trace = Aspipe_grid.Trace
module Repl_sim = Aspipe_skel.Repl_sim
module Costspec = Aspipe_model.Costspec
module Repl_model = Aspipe_model.Repl_model

let log_src = Logs.Src.create "aspipe.repl" ~doc:"Adaptive replication engine"

module Log = (val Logs.src_log log_src)

type config = { dispatch : Repl_sim.dispatch; adapt : bool }

let default_config = { dispatch = Repl_sim.Least_loaded; adapt = true }

type report = {
  scenario_name : string;
  trace : Trace.t;
  initial_replicas : int list array;
  final_replicas : int list array;
  history : (float * int list array) list;
  makespan : float;
  throughput : float;
  reconfigurations : int;
  monitor_samples : int;
}

let run ?(config = default_config) ~scenario ~seed () =
  if config.dispatch = Repl_sim.Round_robin && Scenario.stage_count scenario <> 1 then
    invalid_arg "Adaptive_repl.run: round-robin dispatch needs exactly one (farmed) stage";
  let root_rng = Rng.create seed in
  let env_rng = Rng.split root_rng in
  let calib_rng = Rng.split root_rng in
  let sim_rng = Rng.split root_rng in
  let monitor_rng = Rng.split root_rng in
  let topo = Scenario.build scenario ~rng:env_rng in
  let engine = Topology.engine topo in
  let stages = scenario.Scenario.stages in
  let processors = Topology.size topo in
  if processors < Array.length stages then
    invalid_arg "Adaptive_repl.run: need at least one node per stage";
  (* Calibration and sensing run at the adaptive pipeline's settings. *)
  let { Adaptive.probes; measurement_noise; sensor; monitor_every; evaluate_every; _ } =
    Adaptive.default_config
  in
  let calibration = Calibration.run ~probes ~measurement_noise ~rng:calib_rng stages in
  let monitor =
    Monitor.create ~sensor ~rng:monitor_rng ~every:monitor_every
      ~horizon:scenario.Scenario.horizon topo
  in
  let spec_from availability =
    Costspec.with_stage_work
      (Costspec.of_topology ~availability ~topo ~stages ~input:scenario.Scenario.input ())
      (Calibration.work_vector calibration)
  in
  (* Round-robin keeps the farm's rule: the best equal-share worker subset.
     Least-loaded re-derives the greedy allocation of the replica budget. *)
  let allocate spec =
    match config.dispatch with
    | Repl_sim.Round_robin ->
        let workers, score = Repl_model.best_round_robin spec in
        ([| workers |], score)
    | Repl_sim.Least_loaded -> Repl_model.best_replication spec ~budget:processors ~processors
  in
  let initial_replicas, _ =
    allocate (spec_from (fun i -> Node.availability (Topology.node topo i)))
  in
  let trace = Trace.create () in
  let sim =
    Repl_sim.create ~dispatch:config.dispatch ~rng:sim_rng ~topo ~stages
      ~replicas:initial_replicas ~input:scenario.Scenario.input ~trace ()
  in
  let history = ref [] in
  let reconfigurations = ref 0 in
  if config.adapt then
    Engine.periodic engine ~every:evaluate_every (fun () ->
        if Repl_sim.finished sim then false
        else begin
          let spec = spec_from (Monitor.node_forecast monitor) in
          let candidate, score = allocate spec in
          let current = Repl_sim.replicas sim in
          let current_score =
            Repl_model.throughput ~dispatch:config.dispatch spec ~replicas:current
          in
          (* Re-shape only for a predicted gain above 10 %. *)
          if candidate <> current && score > current_score *. 1.1 then begin
            Repl_sim.set_replicas sim candidate;
            incr reconfigurations;
            history := (Engine.now engine, candidate) :: !history;
            Log.info (fun m ->
                m "[%s] t=%.1f replica sets re-shaped (predicted %.2f -> %.2f items/s)"
                  scenario.Scenario.name (Engine.now engine) current_score score);
            Trace.record_adaptation trace
              {
                Trace.at = Engine.now engine;
                mapping_before = Array.map List.length current;
                mapping_after = Array.map List.length candidate;
                predicted_gain = score -. current_score;
                migration_cost = 0.0;
              }
          end;
          true
        end);
  Repl_sim.run_to_completion sim;
  {
    scenario_name = scenario.Scenario.name;
    trace;
    initial_replicas;
    final_replicas = Repl_sim.replicas sim;
    history = List.rev !history;
    makespan = Trace.makespan trace;
    throughput = Trace.throughput trace;
    reconfigurations = !reconfigurations;
    monitor_samples = Monitor.samples_taken monitor;
  }

let pp_sets ppf sets =
  Array.iter
    (fun ns -> Format.fprintf ppf "{%s}" (String.concat "," (List.map string_of_int ns)))
    sets

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>replicated pipeline on %s: %a -> %a@ makespan %.2f s, throughput %.4f items/s, %d \
     reconfiguration(s)@]"
    r.scenario_name pp_sets r.initial_replicas pp_sets r.final_replicas r.makespan r.throughput
    r.reconfigurations
