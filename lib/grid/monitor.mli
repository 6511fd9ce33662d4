(** The resource-monitoring subsystem — this repository's stand-in for the
    Network Weather Service.

    Every [every] seconds each node's availability is sampled through a noisy,
    occasionally failing sensor, and the samples feed a per-node forecaster
    (the NWS adaptive ensemble by default). The adaptive engine consults
    {!node_forecast} when it re-evaluates the mapping, so adaptation decisions
    are made from the same kind of imperfect signal a live grid offers. *)

type t

type sensor_spec = {
  noise : float;  (** multiplicative Gaussian sensing noise (std dev) *)
  dropout : float;  (** probability a sample is lost *)
}

val default_sensor : sensor_spec
(** 2% noise, 1% dropout. *)

val perfect_sensor : sensor_spec

val create :
  ?sensor:sensor_spec -> rng:Aspipe_util.Rng.t -> every:float -> horizon:float -> Topology.t -> t
(** Starts sampling immediately and stops after [horizon]. Every node and
    link gets its own [Forecast.adaptive ~fallback:1.0] forecaster.

    A down node does not answer its sensor: no sample arrives and a
    heartbeat is counted as missed. After two consecutive misses the node
    is {!suspected} — the monitor's failure-detection verdict, which stays
    advisory (the monitor never acts on it itself). *)

val node_forecast : t -> int -> float
(** Forecast availability of node [i], clamped to [\[0, 1\]]; 1.0 before any
    sample arrived. *)

val link_forecast : t -> src:int -> dst:int -> float
(** Forecast quality of the directed link; 1.0 on the diagonal and before
    any sample. *)

val user_link_forecast : t -> int -> float
(** Forecast quality of the user ↔ node [i] connection. *)

val samples_taken : t -> int

val suspected : t -> int -> bool
(** Whether node [i] has missed two or more consecutive heartbeats.
    Cleared as soon as the node answers again. *)
