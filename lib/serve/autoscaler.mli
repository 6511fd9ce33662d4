(** The autoscaler interface: one name for each way of deciding when a
    serving pipeline re-maps (scales).

    Every autoscaler is a recipe for a fresh {!Aspipe_core.Policy.t} —
    policies carry mutable state (cool-down clocks), so each run must get
    its own value via {!fresh}. The paper's remap-on-divergence trigger,
    the backlog trigger and the latency-gradient trigger all fit behind
    this one interface, which is what lets the serving experiments compare
    them like-for-like on SLO attainment versus provisioned node-seconds. *)

type t

val name : t -> string

val fresh : t -> Aspipe_core.Policy.t
(** A fresh, independently-stateful policy value for one run. *)

val static : unit -> t
(** Never re-maps: whatever the run was provisioned with, it keeps. *)

val remap_on_divergence : ?drop:float -> unit -> t
(** The paper's trigger ({!Aspipe_core.Policy.threshold}): re-map when
    observed throughput diverges below the adopted expectation. Demand-
    blind: an arrival surge that saturates the pipeline does not move
    observed throughput below the adopted rate, so it cannot fire. *)

val queue_length : ?high:int -> ?low:int -> unit -> t
(** Backlog hysteresis ({!Aspipe_core.Policy.queue_length}). *)

val latency_gradient : unit -> t
(** Pre-breach latency trigger ({!Aspipe_core.Policy.latency_gradient}). *)
