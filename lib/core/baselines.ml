module Rng = Aspipe_util.Rng
module Topology = Aspipe_grid.Topology
module Node = Aspipe_grid.Node
module Monitor = Aspipe_grid.Monitor
module Trace = Aspipe_grid.Trace
module Skel_sim = Aspipe_skel.Skel_sim
module Stage = Aspipe_skel.Stage
module Mapping = Aspipe_model.Mapping
module Costspec = Aspipe_model.Costspec
module Predictor = Aspipe_model.Predictor
module Search = Aspipe_model.Search

type outcome = {
  label : string;
  mapping : Mapping.t;
  trace : Trace.t;
  makespan : float;
  throughput : float;
}

(* Mirror Adaptive.run's rng-splitting order so the world and the per-item
   work draws are bit-identical across strategies for a given seed. *)
let split_rngs seed =
  let root = Rng.create seed in
  let env = Rng.split root in
  let _calib = Rng.split root in
  let sim = Rng.split root in
  (env, sim)

let run_static ~label ~mapping ~scenario ~seed =
  let env_rng, sim_rng = split_rngs seed in
  let topo = Scenario.build scenario ~rng:env_rng in
  let mapping = Mapping.of_array ~processors:(Topology.size topo) mapping in
  let trace = Trace.create () in
  let sim =
    Skel_sim.create ~rng:sim_rng ~topo ~stages:scenario.Scenario.stages
      ~mapping:(Mapping.to_array mapping) ~input:scenario.Scenario.input ~trace ()
  in
  Skel_sim.run_to_completion sim;
  { label; mapping; trace; makespan = Trace.makespan trace; throughput = Trace.throughput trace }

let dims scenario ~seed =
  (* Probe the topology size without disturbing the run seeds. *)
  let rng = Rng.create (seed + 0x5eed) in
  let topo = Scenario.build scenario ~rng in
  Topology.size topo

let static_round_robin ~scenario ~seed =
  let processors = dims scenario ~seed in
  let m = Mapping.round_robin ~stages:(Scenario.stage_count scenario) ~processors in
  run_static ~label:"static-round-robin" ~mapping:(Mapping.to_array m) ~scenario ~seed

let static_blocks ~scenario ~seed =
  let processors = dims scenario ~seed in
  let m = Mapping.blocks ~stages:(Scenario.stage_count scenario) ~processors in
  run_static ~label:"static-blocks" ~mapping:(Mapping.to_array m) ~scenario ~seed

let ground_truth_spec scenario topo =
  Costspec.of_topology
    ~availability:(fun i -> Node.availability (Topology.node topo i))
    ~topo ~stages:scenario.Scenario.stages ~input:scenario.Scenario.input ()

let static_model_best ~scenario ~seed () =
  (* Choose on a throwaway environment (identical world), then execute. *)
  let env_rng, _ = split_rngs seed in
  let topo = Scenario.build scenario ~rng:env_rng in
  let predictor = Predictor.make (ground_truth_spec scenario topo) in
  let result = Predictor.choose predictor in
  run_static ~label:"static-model-best"
    ~mapping:(Mapping.to_array result.Search.mapping)
    ~scenario ~seed

let oracle_static ?fix_first_on ~scenario ~seed () =
  let processors = dims scenario ~seed in
  let stages = Scenario.stage_count scenario in
  let free = match fix_first_on with Some _ -> stages - 1 | None -> stages in
  (match Mapping.space_within ~stages:free ~processors ~cap:4096 with
  | Some _ -> ()
  | None -> invalid_arg "Baselines.oracle_static: assignment space too large");
  let candidates = Mapping.enumerate ?fix_first_on ~stages ~processors () in
  let results =
    List.map
      (fun m ->
        let o = run_static ~label:"oracle-probe" ~mapping:(Mapping.to_array m) ~scenario ~seed in
        (Mapping.to_array m, o.makespan))
      candidates
  in
  let best_mapping, _ =
    List.fold_left
      (fun ((_, bt) as best) ((_, t) as cand) -> if t < bt then cand else best)
      (List.hd results) (List.tl results)
  in
  let best = run_static ~label:"oracle-static" ~mapping:best_mapping ~scenario ~seed in
  (best, results)

(* --- behaviour under faults ------------------------------------------ *)

type fault_outcome = {
  f_label : string;
  f_mapping : Mapping.t;
  f_trace : Trace.t;
  completed : int;
  total : int;
  finish : float option;  (* completion time; None = did not finish *)
  stall : string option;  (* the watchdog diagnostic when DNF *)
  restarts : int;
  items_lost : int;
}

(* A static run that survives fault-induced stalls: instead of raising like
   [run_static], report DNF with the partial progress and the watchdog's
   diagnosis. Crash+recover schedules may still complete (the simulator's
   same-node checkpoint replay) — what a static mapping can never do is
   route around a node that stays dead. *)
let static_faulty ~label ~mapping ~scenario ~seed () =
  let env_rng, sim_rng = split_rngs seed in
  let topo = Scenario.build scenario ~rng:env_rng in
  let mapping = Mapping.of_array ~processors:(Topology.size topo) mapping in
  let trace = Trace.create () in
  let sim =
    Skel_sim.create ~rng:sim_rng ~topo ~stages:scenario.Scenario.stages
      ~mapping:(Mapping.to_array mapping) ~input:scenario.Scenario.input ~trace ()
  in
  let status = Skel_sim.run sim in
  {
    f_label = label;
    f_mapping = mapping;
    f_trace = trace;
    completed = Skel_sim.items_completed sim;
    total = Skel_sim.items_total sim;
    finish = (match status with `Completed -> Some (Trace.makespan trace) | `Stalled _ -> None);
    stall = (match status with `Completed -> None | `Stalled d -> Some d);
    restarts = 0;
    items_lost = Skel_sim.items_lost_total sim;
  }

(* The naive fault-tolerance baseline: run statically; when the pipeline
   stalls, charge a detection timeout (counted from the last observed
   completion — the instant progress provably stopped), then restart the
   whole workload from scratch on a model-best mapping that avoids every
   node seen dead at detection time. Each phase rebuilds the identical
   world, so a permanent crash re-fires at its scheduled time but now hits
   a node the restarted mapping no longer uses. *)
let detection_timeout = 30.0
let max_restarts = 3

let static_restart ~scenario ~seed () =
  let rec phase ~restarts ~elapsed ~dead =
    let env_rng, sim_rng = split_rngs seed in
    let topo = Scenario.build scenario ~rng:env_rng in
    let availability i =
      if List.mem i dead then 1e-9 else Node.availability (Topology.node topo i)
    in
    let spec =
      Costspec.of_topology ~availability ~topo ~stages:scenario.Scenario.stages
        ~input:scenario.Scenario.input ()
    in
    let result = Predictor.choose (Predictor.make ~kind:Predictor.Analytic spec) in
    let mapping = result.Search.mapping in
    let trace = Trace.create () in
    let sim =
      Skel_sim.create ~rng:sim_rng ~topo ~stages:scenario.Scenario.stages
        ~mapping:(Mapping.to_array mapping) ~input:scenario.Scenario.input ~trace ()
    in
    let status = Skel_sim.run sim in
    let completed = Skel_sim.items_completed sim in
    let total = Skel_sim.items_total sim in
    let base = { f_label = "static-restart"; f_mapping = mapping; f_trace = trace;
                 completed; total; finish = None; stall = None; restarts;
                 items_lost = Skel_sim.items_lost_total sim }
    in
    match status with
    | `Completed -> { base with finish = Some (elapsed +. Trace.makespan trace) }
    | `Stalled diagnostic ->
        let stalled_at = Trace.makespan trace in
        let detected = stalled_at +. detection_timeout in
        let now_dead =
          List.filter
            (fun i -> not (Node.up (Topology.node topo i)))
            (List.init (Topology.size topo) Fun.id)
        in
        let dead = List.sort_uniq compare (now_dead @ dead) in
        if restarts >= max_restarts then { base with stall = Some diagnostic }
        else phase ~restarts:(restarts + 1) ~elapsed:(elapsed +. detected) ~dead
  in
  phase ~restarts:0 ~elapsed:0.0 ~dead:[]

let clairvoyant ~scenario ~seed =
  let config =
    {
      Adaptive.default_config with
      policy = (fun () -> Policy.always_best ());
      sensor = Monitor.perfect_sensor;
      monitor_every = 2.0;
      evaluate_every = 5.0;
      probes = 50;
      measurement_noise = 0.0;
    }
  in
  Adaptive.run ~config ~scenario ~seed ()
