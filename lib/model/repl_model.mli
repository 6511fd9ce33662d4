(** Performance model of pipelines with replicated stages ({!Aspipe_skel.Repl_sim}).

    A node serving assignments from several stages splits its rate equally
    among them; a replica's {e share rate} is that split divided by the
    stage's work. Under least-loaded (demand-driven) dealing the shares add
    up; under a round-robin deal every replica gets an equal share of the
    stream, so the stage saturates with its slowest member. With
    asynchronous sends, steady throughput is the minimum stage capacity.
    On a one-stage spec this is the task-farm model. *)

(* lint: unused-export-ok used by stage_capacity; test_model checks it directly *)
val node_share : replicas:int list array -> processors:int -> int array
(** How many (stage, replica) assignments each node carries. *)

(* lint: unused-export-ok used by throughput and best_replication; test_model checks it directly *)
val stage_capacity :
  ?dispatch:Aspipe_skel.Repl_sim.dispatch -> Costspec.t -> replicas:int list array -> int -> float
(** Items/s stage [i] can sustain given everyone's replica sets: the sum of
    its replicas' share rates under [Least_loaded] (the default),
    [|replicas| × min share rate] under [Round_robin]. A zero-work stage
    has infinite capacity. *)

val throughput :
  ?dispatch:Aspipe_skel.Repl_sim.dispatch -> Costspec.t -> replicas:int list array -> float
(** min over stages of {!stage_capacity}.
    Raises [Invalid_argument] on dimension errors or empty replica sets. *)

val best_round_robin : Costspec.t -> int list * float
(** The farm's worker selection on a one-stage spec: the subset of the
    processors maximizing round-robin throughput. Sort by rate descending
    (ties by node id) and take the prefix whose [k × rate_k] is maximal,
    the first maximum on ties. Returns the set ascending and its predicted
    throughput. Raises [Invalid_argument] on a multi-stage spec. *)

val best_replication :
  Costspec.t -> budget:int -> processors:int -> int list array * float
(** Greedy replica assignment: every stage starts with one replica on its
    own processor (round-robin, error if [processors < stages]); the
    remaining [budget − Ns] replicas go one at a time to the current
    bottleneck stage, each on the least-loaded node. Returns the sets and
    the predicted throughput. *)
