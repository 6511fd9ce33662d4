(** The comparison points every adaptive-pattern experiment needs.

    All baselines run in a world rebuilt from the same [(scenario, seed)]
    pair the adaptive run used — identical load events, identical per-item
    work draws — so differences in outcome are attributable to the mapping
    strategy alone. *)

type outcome = {
  label : string;
  mapping : Aspipe_model.Mapping.t;  (** the static assignment used *)
  trace : Aspipe_grid.Trace.t;
  makespan : float;
  throughput : float;
}

val run_static :
  label:string -> mapping:int array -> scenario:Scenario.t -> seed:int -> outcome
(** Execute the pipeline with a fixed mapping, no adaptation. *)

val static_round_robin : scenario:Scenario.t -> seed:int -> outcome
val static_blocks : scenario:Scenario.t -> seed:int -> outcome

val static_model_best : scenario:Scenario.t -> seed:int -> unit -> outcome
(** The mapping the analytic model picks from ground truth at t = 0 and
    true stage means — the best non-clairvoyant static schedule available. *)

val oracle_static :
  ?fix_first_on:int ->
  scenario:Scenario.t ->
  seed:int ->
  unit ->
  outcome * (int array * float) list
(** Simulate {e every} mapping of the (bounded) assignment space in the
    identical world and return the one with the smallest makespan, plus all
    per-mapping makespans. [fix_first_on] pins stage 0's processor (use it
    when the input data's location is fixed, as in the paper's tables).
    Raises [Invalid_argument] if the space exceeds 4096 candidates. This is the true static optimum. *)

val clairvoyant : scenario:Scenario.t -> seed:int -> Adaptive.report
(** The adaptive engine with perfect sensors, dense monitoring, noise-free
    calibration and an eager policy — the practical upper bound on what
    adaptation can deliver. *)

(** {2 Behaviour under faults}

    What non-adaptive strategies do when the scenario's fault schedule
    kills nodes: stall (DNF) or naively restart. These give the fault
    experiments their contrast with adaptive failover. *)

type fault_outcome = {
  f_label : string;
  f_mapping : Aspipe_model.Mapping.t;  (** the (last) static assignment used *)
  f_trace : Aspipe_grid.Trace.t;  (** the last phase's trace *)
  completed : int;  (** items delivered in the last phase *)
  total : int;
  finish : float option;
      (** wall-clock completion time including any detection/restart
          charges; [None] = did not finish *)
  stall : string option;  (** the stall-watchdog diagnostic when DNF *)
  restarts : int;
  items_lost : int;  (** item-loss events in the last phase *)
}

val static_faulty :
  label:string ->
  mapping:int array ->
  scenario:Scenario.t ->
  seed:int ->
  unit ->
  fault_outcome
(** [run_static] that reports a fault-induced stall as a DNF outcome (with
    partial progress and the watchdog's diagnosis) instead of raising.
    Crash+recover schedules may still complete via the simulator's
    same-node checkpoint replay; a permanently dead node means DNF. *)

val static_restart : scenario:Scenario.t -> seed:int -> unit -> fault_outcome
(** The naive fault-tolerance baseline: run the model-best static mapping;
    on a stall, charge a 30 s detection timeout from the moment progress
    stopped, then restart the whole workload from item 0 on a model-best
    mapping avoiding every node seen dead at detection — up to 3 times. [finish] accumulates the abandoned
    phases plus the completing one; no work survives a restart, which is
    exactly the penalty adaptive failover's checkpoint replay avoids. *)
