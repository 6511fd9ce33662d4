(** The standard pipeline meter: a bus sink that keeps a {!Metrics}
    registry current as the run unfolds.

    Maintained instruments (names are stable API):
    - [events.total], [items.completed], [transfers.total],
      [monitor.samples], [calibration.probes] — counters;
    - [adaptations.considered] / [.committed] / [.rejected] — counters,
      plus [adaptations.predicted_gain] / [.migration_cost] — gauges
      accumulating totals;
    - [stage.N.service_time], [transfer.time], [forecast.abs_error],
      [stage.N.queue_depth] — histograms;
    - [stage.N.queue_depth.now], [transfers.bytes] — gauges;
    - [node.N.services] — counters, and [node.N.utilization] — gauges
      (busy time over elapsed time, refreshed at {!snapshot}). *)

type t

val attach : Bus.t -> t
(** Subscribe a meter to [bus], recording into a fresh registry. *)

val snapshot : t -> Metrics.snapshot
(** Refresh the derived gauges (per-node utilization against the bus
    clock), then snapshot the registry. *)
