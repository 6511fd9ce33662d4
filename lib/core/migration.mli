(** The migration cost model: what moving from one mapping to another costs
    in pipeline stall time. Stages migrate concurrently over distinct links,
    so the stall is the slowest individual move; each moving stage pays its
    state transfer plus a fixed restart penalty. The adaptation policies use
    this to refuse migrations that would not amortize. *)

type t = { restart_penalty : float  (** seconds per migrating stage *) }

val default : t
(** 0.5 s restart penalty. *)

val stall_seconds :
  t ->
  spec:Aspipe_model.Costspec.t ->
  stages:Aspipe_skel.Stage.t array ->
  current:Aspipe_model.Mapping.t ->
  target:Aspipe_model.Mapping.t ->
  float
(** Estimated stall: max over moving stages of
    [link_transfer(state_bytes) + restart_penalty]; 0 when the mappings are
    equal. Raises [Invalid_argument] when their lengths differ. *)
