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

val kind : t -> kind
val spec : t -> Costspec.t

val evaluate : t -> Mapping.t -> float
(** Predicted steady-state throughput (items/s). *)

val choose :
  ?fix_first_on:int ->
  ?exhaustive_limit:int ->
  ?incumbent:Mapping.t ->
  t ->
  Search.result
(** Best mapping over the full space. The [Analytic] kind runs
    {!Search.auto_spec} — pinned or not, so [exhaustive_limit] always holds;
    the [Ctmc] kind keeps the generic {!Search.auto} / {!Search.exhaustive}.
    [incumbent], the mapping the pipeline runs now, seeds the analytic
    branch-and-bound so it scores fewer leaves ([evaluated] falls); it never
    changes the choice, and the [Ctmc] kind ignores it. All backends obey the
    lowest-code tie-break, so the chosen mapping is independent of backend,
    worker count and incumbent. *)

val rank : t -> Mapping.t list -> (Mapping.t * float) list
(** Candidates with scores, best first; deterministic for equal scores. *)

val predicted_completion : t -> Mapping.t -> items:int -> float
(** Makespan estimate ({!Analytic.completion_time}, regardless of [kind],
    with the CTMC throughput substituted when [kind = Ctmc]). *)
