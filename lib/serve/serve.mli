(** The open-arrival serving driver: the adaptive engine re-hosted for a
    workload that never ends.

    Where {!Aspipe_core.Adaptive.run} drains a known batch and scores
    makespan, [run] serves an {!Arrival.t} process against a latency
    {!Slo.spec} and scores {e SLO attainment versus provisioned cost}:

    - arrivals are lazy self-rescheduling engine events ({!Arrival.schedule}),
      injected into an open-stream {!Aspipe_skel.Skel_sim} that stamps every
      item and emits per-item [Sojourn] events on departure;
    - SLO windows close on their own periodic clock and are published as
      [Slo_window] control events;
    - the autoscaler policy is evaluated periodically with the full serving
      context (backlog, observed arrival rate, windowed p99 and its slope,
      and a cheapest-adequate-mapping search for scale-down);
    - provisioned cost is accounted as node-seconds: the time integral of
      the adopted mapping's distinct-node footprint.

    Start-up (calibration, monitor, initial search) and the epoch step
    (failover, belief predictor, {!Aspipe_core.Policy.decide}, commit) are
    {!Aspipe_core.Adaptive.start} and {!Aspipe_core.Adaptive.epochs}, the
    same code the closed-stream engine runs under
    {!Aspipe_core.Adaptive.default_config}. This driver adds only the open
    stream: its provisioned mapping, its liveness test, the serving half of
    each epoch's context, and the node-seconds clock. So serving runs and
    batch runs are honestly comparable. *)

type report = {
  scenario_name : string;
  autoscaler_name : string;
  trace : Aspipe_grid.Trace.t;
  slo : Slo.spec;
  windows : Slo.window_stats list;
  attainment : float;  (** fraction of SLO windows attained; [nan] if none *)
  arrivals : int;
  completions : int;
  violations : int;  (** departures over the latency threshold *)
  p50 : float;  (** exact nearest-rank quantiles of the sojourn series *)
  p99 : float;
  p999 : float;
  mean_sojourn : float;
  max_sojourn : float;
  node_seconds : float;  (** provisioned cost *)
  mean_nodes : float;  (** node_seconds / run duration *)
  duration : float;  (** last departure's virtual time *)
  initial_mapping : Aspipe_model.Mapping.t;
  final_mapping : Aspipe_model.Mapping.t;
  adaptation_count : int;
  policy_evaluations : int;
  failover_count : int;
  items_lost : int;
}

val run :
  ?instrument:(Aspipe_obs.Bus.t -> unit) ->
  ?initial:[ `Cheapest | `Best ] ->
  autoscaler:Autoscaler.t ->
  arrival:Arrival.t ->
  slo:Slo.spec ->
  ?provision_rate:float ->
  scenario:Aspipe_core.Scenario.t ->
  seed:int ->
  unit ->
  report
(** Serve [arrival] through [scenario]'s pipeline until the scenario
    horizon, then let the queue drain (for at most twice the horizon
    again). [provision_rate] (items/s, default 0) is the demand the initial
    mapping is provisioned for: with [~initial:`Cheapest] (default) the run
    starts on the cheapest mapping predicted to cover [provision_rate × 1.2]
    (the headroom); [`Best] starts on the throughput-maximal mapping (the
    over-provisioned baseline). A migration is amortized against the
    backlog plus the demand observed over the next 60 s. Deterministic for
    a fixed seed.

    Raises [Invalid_argument] naming the value when the scenario horizon is
    not finite or [provision_rate] is negative or not finite. *)

val pp_report : Format.formatter -> report -> unit
