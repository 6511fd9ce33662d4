(** Ties the cost spec, the evaluators and the search together: the component
    the adaptive engine calls when it must answer "which mapping should the
    pipeline be running, given what the monitors currently believe?". *)

type kind = Analytic | Ctmc
(** Which evaluator scores candidate mappings. [Analytic] is O(Ns) per
    candidate; [Ctmc] is exact under exponential assumptions but costs
    3^Ns states per candidate. *)

type t

val make : ?kind:kind -> Costspec.t -> t
(** Default [Analytic]. *)

val evaluate : t -> Mapping.t -> float
(** Predicted steady-state throughput (items/s). *)

val upper_bound : t -> float
(** A rate no mapping's {!evaluate} exceeds, bit for bit in float
    arithmetic: {!Analytic.upper_bound} for the [Analytic] kind, and
    [infinity] for [Ctmc], whose solved rates carry no such float
    guarantee. It holds under any [fix_first_on], so it also bounds every
    {!choose} result's score. *)

val choose : ?fix_first_on:int -> ?incumbent:Mapping.t -> t -> Search.result
(** Best mapping over the full space. The [Analytic] kind runs
    {!Search.auto_spec} — pinned or not, so {!Search.default_exhaustive_limit}
    always holds; the [Ctmc] kind keeps the generic {!Search.auto} /
    {!Search.exhaustive}.
    [incumbent], the mapping the pipeline runs now, seeds the analytic
    branch-and-bound so it scores fewer leaves ([evaluated] falls); it never
    changes the choice, and the [Ctmc] kind ignores it. All backends obey the
    lowest-code tie-break, so the chosen mapping is independent of backend,
    worker count and incumbent. *)

val cheapest : required:float -> t -> Mapping.t option
(** [cheapest ~required t] is the scale-down target: among the mappings
    whose predicted rate ({!evaluate}) is at least [required], one with the
    fewest distinct processors; ties go to the higher rate, then to the
    lower enumeration code ({!Mapping.decode}'s order), so the answer is
    the one a fold over {!Mapping.enumerate} in code order would keep.
    [None] when no mapping covers [required] or when the space exceeds
    {!Mapping.max_enumeration}.

    The search tries the fewest nodes first: for k = 1, 2, …,
    min(stages, processors) it visits, depth first in stage order, every
    mapping that uses exactly k distinct processors, never entering a
    prefix that cannot end at exactly k, and stops after the first k at
    which some mapping covers [required]. Each mapping is scored at most
    once, so the worst case (nothing covers [required], or the answer
    needs min(stages, processors) nodes) scores the whole space once. The
    [Analytic] kind re-scores a visited mapping with one
    {!Analytic.Incr.move} per reassigned stage; the [Ctmc] kind solves
    each visited mapping's chain. Apart from a fixed setup, the [Analytic]
    kind allocates a few words per visited mapping (boxed floats of calls
    that are not inlined), never the mapping itself. *)
