(** Pipelines with replicated stages — a farm nested inside the pipeline.

    Each stage runs on a {e set} of replica nodes instead of exactly one:
    items reaching the stage are dealt to a replica by the {!dispatch}
    policy, serviced there, and re-sequenced by a per-stage reorder buffer
    before moving downstream, so the next stage still observes the input
    order ([Pipeline1for1] is preserved end to end). Replication is how a
    hot stage stops being the bottleneck without rewriting the application.
    A one-stage replicated pipeline is the ordered task farm: its replica
    set is the worker set and {!set_replicas} re-selects workers mid-run.

    Replicated stages use buffered (asynchronous) sends — the reorder buffer
    decouples the sender anyway — unlike the synchronous moves of the
    single-node {!Skel_sim}; single-replica stages therefore behave like a
    slightly more buffered {!Skel_sim} stage.

    Work is recomputed at every deal, never memoised, with
    {!Stage.keyed_work} on (work seed, item id, stage index), the work seed
    being one draw of [rng] at {!create}: an item costs the same whichever
    replica, replica set or dispatch policy serves it. *)

type dispatch =
  | Round_robin  (** equal shares in arrival order — eSkel's default deal *)
  | Least_loaded  (** to the replica with the fewest outstanding items *)

type t

val create :
  ?dispatch:dispatch ->
  rng:Aspipe_util.Rng.t ->
  topo:Aspipe_grid.Topology.t ->
  stages:Stage.t array ->
  replicas:int list array ->
  input:Stream_spec.t ->
  trace:Aspipe_grid.Trace.t ->
  unit ->
  t
(** [replicas.(i)] is stage [i]'s replica node set (non-empty, in range,
    duplicates removed). Raises [Invalid_argument] on bad inputs.

    A replica's {e outstanding} items are those dealt to it whose service
    has not ended: in transit to it, queued, or in service. Its slot frees
    when service ends, not when the result reaches the next stage or the
    user. Under [Least_loaded] dispatch (the default) each replica holds at
    most two outstanding items: the deal is demand-driven, so shares
    follow speed. [Round_robin] deals every arrival at once to the next
    replica in turn (one cursor per stage, kept across {!set_replicas}),
    so shares are equal. *)

val replicas : t -> int list array
(** Current replica sets, ascending. *)

val set_replicas : t -> int list array -> unit
(** Replace every stage's replica set; takes effect for future deals (items
    already dealt to a removed replica finish there). Raises
    [Invalid_argument] on bad sets. *)

val finished : t -> bool

val run_to_completion : t -> unit
(** Steps the engine until every item has left the pipeline. Raises
    [Failure] past 10⁷ virtual seconds or when the event queue drains with
    items in flight. *)

val execute :
  ?rng:Aspipe_util.Rng.t ->
  ?dispatch:dispatch ->
  topo:Aspipe_grid.Topology.t ->
  stages:Stage.t array ->
  replicas:int list array ->
  input:Stream_spec.t ->
  unit ->
  Aspipe_grid.Trace.t
(** One-shot run; the trace records each service on its replica's node. *)
