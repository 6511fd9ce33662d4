(** The simulation backend of the pipeline skeleton.

    Runs an [Ns]-stage [Pipeline1for1] over a {!Aspipe_grid.Topology.t} under
    a stage→node mapping, producing a {!Aspipe_grid.Trace.t}. Semantics:

    - items enter at the user site and cross the user link to the first
      stage's node; outputs cross the user link back;
    - each stage serves one item at a time, in order; colocated stages share
      their node's FCFS server;
    - a stage's cycle is [(move in).(process).(move out)]: the output move is
      synchronous, so the stage cannot start its next item until the
      downstream transfer is delivered — slow links throttle the stages that
      feed them, as in the skeleton's performance model;
    - {!remap} migrates stages to new nodes mid-run: each moving stage blocks,
      its state (plus queued item payloads) crosses the old→new link, then it
      resumes at the new node. An in-flight service finishes on the old node.

    Fault semantics (driven by {!Aspipe_grid.Node.set_up} transitions, which
    the simulator observes through the engine bus):

    - a {e crash} loses exactly the items in service and queued at the
      node's stages (fail-stop): they are recorded in a per-stage
      checkpoint (the set of accepted-but-unfinished item ids) and an
      {!Aspipe_obs.Event.Item_lost} is emitted per item. Outputs already
      handed to the network, state mid-migration, and queued inputs of a
      mid-migration stage survive — their bytes are in flight, not on the
      dying node;
    - a {e recovery} replays each resident stage's checkpoint in place:
      lost payloads are re-fetched from upstream in one bulk transfer and
      re-enter the pending queue ahead of later arrivals, preserving the
      pipeline's FIFO order ({!Aspipe_obs.Event.Item_redispatched} each);
    - {!remap} moves stages away from dead nodes without touching the
      corpse: the stage is re-instantiated at its new node and its
      checkpoint replayed there.

    Work is recomputed, never memoised: each dispatch draws the item's work
    at the stage with {!Stage.keyed_work}, keyed on (work seed, item id,
    stage index), the work seed being one draw of [rng] at {!create}. An
    item therefore costs the same under any mapping, buffer capacity or
    adaptation schedule, and a re-dispatched item costs what its lost first
    attempt did.

    Item ids are non-negative, and a caller numbers them densely from 0:
    per-item state (the open-stream arrival stamps, and the entry instants
    and stamps of a passed trace) lives in columns indexed by id, so memory
    grows with the largest id seen.

    The executor never looks at ground-truth availability — only the
    simulated clock — so adaptive policies on top of it are honestly
    evaluated against imperfect information. *)

type t

val create :
  ?queue_capacity:int ->
  ?trace:Aspipe_grid.Trace.t ->
  ?arrivals:[ `From_input | `External ] ->
  ?on_completion:(item:int -> arrival:float -> unit) ->
  rng:Aspipe_util.Rng.t ->
  topo:Aspipe_grid.Topology.t ->
  stages:Stage.t array ->
  mapping:int array ->
  input:Stream_spec.t ->
  unit ->
  t
(** Schedules the arrivals, one pending at a time ({!Aspipe_des.Engine.schedule_series});
    nothing runs until the engine does.
    [queue_capacity] bounds every stage's input buffer (default unbounded):
    a delivery to a full stage parks, holding the upstream sender busy —
    with capacity 1 the pipeline approaches the bufferless synchronization
    of the CTMC model. [trace], when given, is written directly: each
    completion, each item's entry instant (the start of its first stage-0
    service) and, on open streams, each arrival stamp — what throughput,
    makespan and sojourn summaries read. It is not subscribed to the bus,
    so it holds no per-service or per-transfer records and keeps the
    guarded hot emits off: without a full-stream sink the run constructs
    no event payloads at all. A caller that needs every record subscribes
    a trace of its own with {!Aspipe_grid.Trace.subscribe}; a trace is
    passed here or subscribed, never both.

    [arrivals] selects the stream model. The default, [`From_input],
    schedules the closed stream described by [input]: its instants are
    drawn at creation and fire in the order scheduling them all at once
    would give. [`External] opens the stream: [input]'s arrival spec and item
    count are ignored, items enter only through {!inject} (typically from a
    lazily self-rescheduling {e arrival process} living on the same
    engine), every injected item is stamped with its arrival instant, and
    each departure emits an {!Aspipe_obs.Event.Sojourn} carrying that stamp
    — latency becomes a first-class output. [on_completion], fired after
    the emit, lets a serving driver account SLO windows without paying a
    bus subscription on closed runs.

    Raises [Invalid_argument] if the mapping length differs from the stage
    count, names an unknown node, or the capacity is below 1. *)

val inject : t -> item:int -> unit
(** Open-stream arrival: stamps [item] with the current virtual time and
    hands it to the first stage (crossing the user link like any other
    arrival). Only valid on a simulator created with [~arrivals:`External]
    — raises [Invalid_argument] on a closed-stream simulator, whose
    arrivals were already scheduled by {!create}, and on a negative
    [item]. The stamp is stored in a column indexed by [item] and cleared
    when the item completes. *)

val items_injected : t -> int
(** Arrivals accepted so far via {!inject} (0 on closed streams, where
    {!items_total} counts the input spec instead). *)

val mapping : t -> int array
(** Current stage→node assignment (updated by completed migrations). *)

val remap : t -> int array -> float
(** [remap t m] starts migrating every stage whose assignment changes and
    returns the total bytes in flight. Items already being serviced finish
    where they are. A stage whose node is down is re-instantiated at its
    new node immediately (no state crosses a link out of the corpse, and
    it adds no bytes) and its lost items are re-dispatched from the
    per-stage checkpoint; stages staying put on a live node replay any
    checkpointed losses. Re-entrant migrations to a stage already moving
    are rejected with [Invalid_argument]. *)

val migrating : t -> bool

val items_total : t -> int
val items_completed : t -> int
val finished : t -> bool

val lost_items : t -> int list
(** Item ids currently checkpointed as lost and awaiting re-dispatch,
    ascending. Empty in fault-free runs and after every loss has been
    replayed. *)

val items_lost_total : t -> int
(** Cumulative count of item-loss events (an item lost twice counts
    twice). *)

val items_redispatched_total : t -> int

val run : t -> [ `Completed | `Stalled of string ]
(** Steps the engine until every item has left the pipeline, 10⁷ virtual
    seconds elapse, or the event queue drains with
    items still in flight. The [`Stalled] diagnostic names each stage, its
    node and liveness, what it is doing, and its queue/parked/lost depths —
    and says explicitly when a DOWN node holding a stage makes the stall a
    fault-induced DNF rather than a modelling bug. *)

val run_to_completion : t -> unit
(** {!run}, raising [Failure] with the stall diagnostic on [`Stalled] —
    for callers that treat a non-draining workload as a bug. *)

val execute :
  ?rng:Aspipe_util.Rng.t ->
  ?queue_capacity:int ->
  topo:Aspipe_grid.Topology.t ->
  stages:Stage.t array ->
  mapping:int array ->
  input:Stream_spec.t ->
  unit ->
  Aspipe_grid.Trace.t
(** One-shot static run: create, drain, return the trace passed to
    {!create} (completions, entry instants, no service records). *)
