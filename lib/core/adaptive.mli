(** The adaptive parallel pipeline pattern — the reproduction's primary
    contribution.

    One {!run} executes the full ASPara-style lifecycle on a scenario:

    + {b Calibration}: probe the stage costs ({!Calibration}) and, unless
      disabled, take an initial resource reading;
    + {b Scheduling}: choose the initial stage→processor mapping by model
      search over the calibrated cost spec;
    + {b Execution with monitoring}: run the pipeline on the simulated grid
      while the {!Aspipe_grid.Monitor} samples resource availability through
      noisy sensors and feeds the NWS-style forecasters;
    + {b Adaptation}: at every evaluation epoch, hand the policy a context of
      fresh forecasts, the observed output rate and a migration-cost
      estimator; if it answers [Remap], migrate the moving stages (state
      transfer over the network, restart penalty folded into the cost
      estimate the policy already cleared).

    Everything the engine decides from is observable information —
    calibration estimates, noisy monitor forecasts, the trace — never the
    simulator's ground truth, so comparisons against static and oracle
    baselines are honest. *)

type config = {
  policy : unit -> Policy.t;  (** factory, so every run gets fresh state *)
  evaluator : Aspipe_model.Predictor.kind;
  monitor_every : float;
  evaluate_every : float;
  sensor : Aspipe_grid.Monitor.sensor_spec;
  probes : int;
  measurement_noise : float;
  initial_resource_reading : bool;
      (** calibrate against ground-truth availability at t = 0 (an NWS
          deployment has pre-run history); otherwise assume dedicated *)
  max_failovers : int;
      (** failovers committed per run at most; a retry budget. When the
          monitor suspects a mapped node (2 missed heartbeats), the epoch
          re-maps the orphaned stages to survivors and replays their
          checkpointed items, before the performance policy runs, and no
          sooner than 10 s after the previous failover. *)
}

val default_config : config
(** threshold policy (drop 0.25, cooldown 30 s), analytic evaluator,
    monitor every 5 s, evaluate every 10 s, default sensor, 5 probes,
    1 % measurement noise, initial reading on, at most 16 failovers.
    Every search runs at {!Aspipe_model.Search.default_exhaustive_limit}
    and migrations are priced by {!Migration.default}. *)

type report = {
  scenario_name : string;
  policy_name : string;
  trace : Aspipe_grid.Trace.t;
  calibration : Calibration.t;
  initial_mapping : Aspipe_model.Mapping.t;
  final_mapping : Aspipe_model.Mapping.t;
  makespan : float;
  throughput : float;
  adaptation_count : int;
  policy_evaluations : int;
  monitor_samples : int;
  failover_count : int;  (** committed failure-driven re-maps *)
  items_lost : int;  (** cumulative item-loss events across all crashes *)
  items_redispatched : int;  (** checkpoint replays that re-entered the pipe *)
}

val run :
  ?config:config ->
  ?instrument:(Aspipe_obs.Bus.t -> unit) ->
  scenario:Scenario.t ->
  seed:int ->
  unit ->
  report
(** Build a fresh environment from the scenario and execute to completion.
    Deterministic in [(scenario, config, seed)].

    [instrument] is called with the run's event bus before calibration
    starts, so telemetry sinks (JSONL, Perfetto, metrics meters) can be
    subscribed and observe the complete run: calibration samples, monitor
    readings, forecast updates, every service/transfer/completion, and each
    adaptation decision (considered / committed / rejected). Sinks are pure
    observers — attaching them never changes the run. *)

(** {2 The epoch machinery}

    {!run} is the closed-stream caller of the two functions below and
    [Aspipe_serve.Serve.run] the open-stream one, so both drivers start,
    fail over and decide the same way. *)

type world = {
  config : config;
  scenario : Scenario.t;
  rng : Aspipe_util.Rng.t;
      (** the run's root stream after its four splits; a caller splits any
          further stream from it *)
  sim_rng : Aspipe_util.Rng.t;  (** for the caller's {!Aspipe_skel.Skel_sim.create} *)
  topo : Aspipe_grid.Topology.t;
  engine : Aspipe_des.Engine.t;
  calibration : Calibration.t;
  work : float array;  (** calibrated mean work per stage *)
  monitor : Aspipe_grid.Monitor.t;
  trace : Aspipe_grid.Trace.t;  (** for the caller's simulator; remaps are recorded here *)
  initial_predictor : Aspipe_model.Predictor.t;
  initial_search : Aspipe_model.Search.result;
      (** the best mapping under the initial belief *)
}

val start :
  config ->
  ?instrument:(Aspipe_obs.Bus.t -> unit) ->
  scenario:Scenario.t ->
  seed:int ->
  unit ->
  world
(** Split the environment, calibration, simulator and monitor streams from
    [seed] in that order, build the scenario, call [instrument] with its
    bus, calibrate, start the monitor and search the initial belief (ground
    truth under [initial_resource_reading], a dedicated grid otherwise). *)

type tally = {
  mutable evaluations : int;  (** epochs that reached the policy *)
  mutable adaptations : int;  (** committed remaps *)
  mutable failovers : int;  (** committed failovers *)
}

val epochs :
  world ->
  Policy.t ->
  Aspipe_skel.Skel_sim.t ->
  adopted:float ->
  live:(unit -> bool) ->
  context:(window:float -> Aspipe_model.Predictor.t -> int * Policy.serving option) ->
  on_commit:(int array -> unit) ->
  tally
(** Register the epoch step on the world's engine, every
    [config.evaluate_every] seconds, and return its counts, which grow as
    the engine runs. [adopted] is the rate the initial mapping was adopted
    at. Each epoch stops the periodic when [live ()] is false, waits out a
    migration, then fails over if a mapped node is suspected (back-off and
    cap as in {!config}). Otherwise it builds the belief predictor, asks
    [context ~window predictor] for the items a migration amortizes over
    and the serving signals ([window] is the seconds since the last
    evaluation), publishes [Adaptation_considered], and commits or rejects
    {!Policy.decide}'s answer: a remap is recorded in the world's trace
    before [Adaptation_committed] is published. [on_commit] receives every
    failover and remap target before the simulator switches to it. *)

val pp_report : Format.formatter -> report -> unit
