(** A reproducible experimental setting: topology recipe, background-load
    profiles, pipeline stages, input stream and time horizon.

    Scenarios are values; {!build} instantiates a fresh simulation
    environment (its own engine, nodes, links, scheduled load events) so that
    every run — adaptive, static, oracle, repeated seeds — starts from an
    identical world. *)

type t = {
  name : string;
  make_topo : Aspipe_des.Engine.t -> Aspipe_grid.Topology.t;
  loads : (int * Aspipe_grid.Loadgen.profile) list;
      (** per-node background-load profiles *)
  net_loads : ((int * int) * Aspipe_grid.Loadgen.profile) list;
      (** per-node-pair link-quality profiles (both directions) *)
  faults : (int * Aspipe_fault.Fault.profile) list;
      (** per-node crash/recovery schedules *)
  net_faults : ((int * int) * Aspipe_fault.Fault.profile) list;
      (** per-node-pair partition schedules (both directions) *)
  stages : Aspipe_skel.Stage.t array;
  input : Aspipe_skel.Stream_spec.t;
  horizon : float;  (** when self-rescheduling generators and monitors stop *)
}

val make :
  name:string ->
  make_topo:(Aspipe_des.Engine.t -> Aspipe_grid.Topology.t) ->
  ?loads:(int * Aspipe_grid.Loadgen.profile) list ->
  ?net_loads:((int * int) * Aspipe_grid.Loadgen.profile) list ->
  ?faults:(int * Aspipe_fault.Fault.profile) list ->
  ?net_faults:((int * int) * Aspipe_fault.Fault.profile) list ->
  stages:Aspipe_skel.Stage.t array ->
  input:Aspipe_skel.Stream_spec.t ->
  ?horizon:float ->
  unit ->
  t
(** Defaults: no loads, net loads or faults, horizon 1e6 s. Raises
    [Invalid_argument] on an empty pipeline, a non-positive or NaN horizon, or a
    fault profile that {!Aspipe_fault.Fault.check_horizon} refuses under
    this horizon. *)

val build : t -> rng:Aspipe_util.Rng.t -> Aspipe_grid.Topology.t
(** Fresh engine + topology with all load profiles and fault schedules
    scheduled. Fault rng splits happen after all load splits, so a
    scenario with empty fault lists builds a world bit-identical to one
    built before faults existed. *)

val stage_count : t -> int
