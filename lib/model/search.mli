(** Mapping search: given an evaluator (predicted throughput, higher is
    better), find a good stage→processor assignment.

    Exhaustive search reproduces the paper-scale behaviour (enumerate all
    Np^Ns candidates, pick the best); greedy and hill-climbing keep the
    decision path sub-second when the space explodes, which experiment E6
    quantifies.

    {2 Tie-break contract}

    Every exhaustive backend — the generic walk, the reference list fold,
    and the pruned/canonicalized branch-and-bound — resolves equal scores
    to the candidate with the {e lowest enumeration code} (see
    {!Mapping.decode}). Scores compare by exact float equality, which is
    meaningful because {!Analytic.Incr} is bit-identical to the full
    evaluator. The contract is what makes plain, pruned, and seeded
    searches return byte-identical mappings. *)

type evaluator = Mapping.t -> float

type result = { mapping : Mapping.t; score : float; evaluated : int }

(* lint: unused-export-ok used by auto and auto_spec; test_model checks it directly *)
val default_exhaustive_limit : int
(** Largest candidate space {!auto} / {!auto_spec} searches exhaustively
    before falling back to greedy + hill-climb: [262144] (2¹⁸), raised 13×
    from the historical 20k by the incremental evaluator. *)

val exhaustive :
  ?fix_first_on:int -> stages:int -> processors:int -> evaluator -> result
(** Scores the full assignment space through one scratch array (no list is
    materialized), in ascending enumeration-code order. Ties break toward
    the lowest code. *)

val exhaustive_ref :
  ?fix_first_on:int -> stages:int -> processors:int -> evaluator -> result
(** The historical materializing implementation ([best_of] over
    {!Mapping.enumerate}) — kept as the differential-testing reference for
    {!exhaustive} and the spec-specialized backends, and as E6's
    old-path timing column. *)

val exhaustive_spec :
  ?fix_first_on:int ->
  ?prune:bool ->
  ?canonical:bool ->
  ?incumbent:Mapping.t ->
  Costspec.t ->
  result
(** Exhaustive search on the incremental evaluator. With [prune] (default
    [true]) a branch-and-bound prefix bound skips subtrees that provably
    cannot beat the best candidate so far (strict inequality only,
    preserving the tie-break). The bound is the minimum of the prefix's
    processor capacity stations — adding work to a processor only lowers
    them — and the cycle stations of the stages whose output move is
    already fixed, taken at the prefix's sharing counts. With [canonical]
    (default [true]) processors whose rates and link costs are exactly
    interchangeable are collapsed: only one representative per symmetry
    class is scored (up to p! shrinkage on uniform grids) and the winner is
    relabeled to its class's lowest-code member.

    [incumbent] is a known candidate, typically the mapping the pipeline
    runs now. It is scored first and ranked by its code like any leaf, so
    pruning starts from its score: the closer it is to the optimum, the
    fewer leaves are scored. It never changes the result. An incumbent that
    breaks [fix_first_on] is ignored; one with the wrong stage count or an
    out-of-range processor raises [Invalid_argument].

    [evaluated] counts the leaves the walk scored (not the incumbent), so it
    falls with pruning, canonicalization and a good incumbent; with [prune]
    and [canonical] disabled this is the pure incremental walk and
    [evaluated] equals the space size. The returned mapping and score are
    identical to {!exhaustive} on [Analytic.throughput spec]. *)

(* lint: unused-export-ok used by auto; test_model checks it directly *)
val greedy : ?fix_first_on:int -> stages:int -> processors:int -> evaluator -> result
(** Builds the mapping stage by stage, placing each stage on the processor
    that maximizes the evaluator applied to the partial pipeline (remaining
    stages tentatively on the last chosen processor). O(Ns·Np) evaluations.
    With [fix_first_on], stage 0 is placed on that processor without a
    choice. *)

(* lint: unused-export-ok differential reference: test_model checks hill_climb_spec against it *)
val hill_climb : start:Mapping.t -> processors:int -> evaluator -> result
(** Steepest-ascent over the single-stage-move neighbourhood from [start];
    stops at a local optimum or after 1000 moves.
    Probes neighbours through {!Mapping.iter_neighbours}'s scratch array —
    a candidate is copied only when it improves on the step's incumbent. *)

(* lint: unused-export-ok used by auto_spec; test_model checks it directly *)
val hill_climb_spec : ?fix_first_on:int -> start:Mapping.t -> Costspec.t -> result
(** {!hill_climb} on {!Analytic.Incr}: neighbours are probed as move/undo
    pairs on one incremental state, no full re-evaluation. Same neighbour
    order, same tie-breaks, bit-identical scores — hence the same trajectory
    and result as the generic climb on [Analytic.throughput spec]. With
    [fix_first_on], stage 0 never moves ([start] must already have it on the
    pin, or [Invalid_argument] is raised). *)

val auto :
  ?exhaustive_limit:int -> stages:int -> processors:int -> evaluator -> result
(** Exhaustive when the space has at most [exhaustive_limit] (default
    {!default_exhaustive_limit}) candidates, otherwise greedy refined by
    hill climbing — the policy the adaptive engine uses. Space sizing is
    exact integer arithmetic (no float rounding). *)

val auto_spec :
  ?exhaustive_limit:int ->
  ?fix_first_on:int ->
  ?incumbent:Mapping.t ->
  Costspec.t ->
  result
(** {!auto} specialized to the analytic evaluator: {!exhaustive_spec} below
    the limit, greedy + {!hill_climb_spec} above. [fix_first_on] pins
    stage 0 on both sides of the limit (the free space, one stage smaller,
    is what the limit is compared with).
    [incumbent] seeds {!exhaustive_spec}'s pruning and is ignored by the
    other paths; it never changes the result. *)

val best_of : Mapping.t list -> evaluator -> result
(** Score an explicit candidate list (e.g. the paper's eight mappings). *)
