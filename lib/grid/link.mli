(** A network link between two grid sites.

    A transfer of [b] bytes costs [latency/q + b/(bandwidth·q)] seconds,
    where [q] is the link's current {e quality} — a time-varying factor
    (1.0 = nominal, 0.1 = ten times worse) driven by {!Netgen} profiles the
    way node availability is driven by {!Loadgen}. Concurrent transfers
    overlap, and each samples the quality once, when it starts. Local links — both endpoints on the same
    node — are near-free, mirroring the "really high rate" intra-machine
    moves of grid pipeline deployments. *)

type t

val create : Aspipe_des.Engine.t -> latency:float -> bandwidth:float -> unit -> t
(** [latency] in seconds (≥ 0), [bandwidth] in bytes/second (> 0).
    Quality starts at 1.0. *)

val local : Aspipe_des.Engine.t -> t
(** The same-node link: 0.1 ms latency, 10 GB/s. *)

val latency : t -> float
(** Nominal (quality-1) latency. *)

val bandwidth : t -> float
(** Nominal bandwidth. *)

val quality : t -> float
val set_quality : t -> float -> unit
(** Clamped to [\[0.01, 1\]] — a grid link degrades, it does not vanish. *)

(* lint: unused-export-ok used by transfer; test_grid checks it directly *)
val effective_latency : t -> float
(* lint: unused-export-ok used by transfer_time; test_grid checks it directly *)
val effective_bandwidth : t -> float

(* lint: unused-export-ok used by transfer; test_grid checks it directly *)
val transfer_time : t -> bytes:float -> float
(** Uncontended cost estimate at the current quality — what the performance
    model uses. *)

val transfer : t -> bytes:float -> (unit -> unit) -> unit
(** Simulate a transfer; the callback fires {!transfer_time} later. *)
