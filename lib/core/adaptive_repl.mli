(** Adaptive stage replication: the pipeline with farmed stages, re-shaping
    its replica sets at run time.

    Where {!Adaptive} moves whole stages between processors, this engine
    treats every stage as a (possibly singleton) farm and periodically
    re-derives the best replica allocation for a fixed node budget from the
    monitors' forecasts ({!Aspipe_model.Repl_model.best_replication} over
    forecast-scaled rates). If a replica node degrades, the next allocation
    routes around it; if it recovers, it is re-admitted. Replica changes are
    cheap (the deal is stateless), so the gain threshold is the only brake.

    The adaptive task farm is the one-stage case under [Round_robin]
    dispatch. A round-robin deal is only as fast as its slowest member, so
    the engine re-selects the worker set instead
    ({!Aspipe_model.Repl_model.best_round_robin}): it evicts a worker whose
    node degrades, which {e raises} throughput, and re-admits it once it
    recovers. *)

type config = {
  dispatch : Aspipe_skel.Repl_sim.dispatch;
      (** [Round_robin] needs a one-stage scenario (the farm) *)
  adapt : bool;  (** [false] = static run with the initial replica sets *)
}

val default_config : config
(** Least-loaded, adaptation on. Calibration, monitoring and the epoch
    follow {!Adaptive.default_config} (5 probes at 1 % noise, the default
    sensor every 5 s, an evaluation every 10 s); a re-shape needs a 10 %
    predicted gain, and least-loaded deals one replica budget per node. *)

type report = {
  scenario_name : string;
  trace : Aspipe_grid.Trace.t;
  initial_replicas : int list array;
  final_replicas : int list array;
  history : (float * int list array) list;
      (** reconfigurations, in time order: when, and the sets adopted *)
  makespan : float;
  throughput : float;
  reconfigurations : int;
  monitor_samples : int;
}

val run : ?config:config -> scenario:Scenario.t -> seed:int -> unit -> report
(** Requires at least as many nodes as stages (each stage needs one replica)
    and, under [Round_robin], exactly one stage; raises [Invalid_argument]
    otherwise. Deterministic in [(scenario, config, seed)]. *)

val pp_report : Format.formatter -> report -> unit
