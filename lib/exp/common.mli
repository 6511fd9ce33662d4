(** Shared plumbing for the reconstructed evaluation: canonical grid
    parameters, scenario builders, measurement helpers and small statistics
    used across experiment modules. *)

val default_latency : float
(** 10 ms — the intra-cluster link latency used unless a scenario varies it. *)

val default_bandwidth : float
(** 10 MB/s. *)

val uniform_grid :
  n:int -> ?latency:float -> unit -> Aspipe_des.Engine.t -> Aspipe_grid.Topology.t
(** Topology recipe for {!Aspipe_core.Scenario.make}: [n] nodes of speed 10
    on {!default_bandwidth} links. *)

val heterogeneous_grid :
  speeds:float array -> unit -> Aspipe_des.Engine.t -> Aspipe_grid.Topology.t
(** Nodes of the given speeds on the default links. *)

val batch_input : ?item_bytes:float -> items:int -> unit -> Aspipe_skel.Stream_spec.t
(** All items at t = 0 (saturated pipeline). *)

val steady_throughput : Aspipe_grid.Trace.t -> float
(** Throughput ignoring the first 10% of the run (pipeline fill). *)

val simulated_throughput :
  scenario:Aspipe_core.Scenario.t -> seed:int -> mapping:int array -> float
(** Run the mapping statically in the scenario's world and measure
    {!steady_throughput}. *)

val spearman : float array -> float array -> float
(** Spearman rank correlation (ties broken by index; arrays of equal
    length ≥ 2). *)

val scale : quick:bool -> int -> int
(** Shrink an iteration/item count in quick mode (divides by 5, min 20). *)

val mean_ci : float list -> float * float
(** Mean and 95% half-width. *)

type par_map_impl = { pmap : 'a 'b. ('a -> 'b) -> 'a list -> 'b list }
(** A polymorphic map — the replication-splitting hook. *)

val par_map : ('a -> 'b) -> 'a list -> 'b list
(** Map over independent replications or sweep points. [List.map] by
    default; the campaign runner installs a domain-pool implementation.
    Results are returned by index regardless of completion order, so the
    body must be self-contained (its own [Rng] from an explicit seed, no
    printing, no shared mutable state) and the output is then identical to
    the sequential map. *)

val set_par_map : par_map_impl -> unit
(** Install a parallel implementation (done once by the campaign runner
    before any worker starts). *)

val reset_par_map : unit -> unit
(** Back to [List.map]. *)
