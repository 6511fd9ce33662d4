(** A grid processor: a base speed modulated by a time-varying availability
    and an up/down liveness state.

    Availability is the fraction of the CPU left for the pipeline by
    background (non-dedicated) load — 1.0 means dedicated, 0.0 means the node
    is completely stolen. The node's FCFS server serves whatever stages are
    mapped to it, one item at a time, at rate
    [base_speed × availability × up].

    Liveness is distinct from availability: an availability of 0 merely
    stalls in-flight work (it resumes when load lifts), whereas a {e crash}
    ({!set_up}[ t false]) means the process is gone — simulators drop the
    node's in-service and queued items, and a {!Aspipe_obs.Event.Node_crashed}
    / [Node_recovered] event is emitted on the engine bus at each
    transition. *)

type t

val create : Aspipe_des.Engine.t -> id:int -> speed:float -> unit -> t
(** [speed] is in abstract work units per second; must be positive. *)

val base_speed : t -> float

val availability : t -> float
val set_availability : t -> float -> unit
(** Clamped to [\[0, 1\]]. Updating re-derives the server rate, which
    re-times any in-flight service. *)

val up : t -> bool
(** Liveness; nodes start up. *)

val set_up : t -> bool -> unit
(** Crash ([false]) or recover ([true]) the node. Idempotent; on an actual
    transition the derived server rate is re-driven (down forces rate 0)
    and the matching fault event is emitted on the engine bus. *)

val server : t -> Aspipe_des.Server.t
(** The node's server, serving at [base_speed × availability × up] work
    units per second. *)
