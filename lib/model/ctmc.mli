(** The high-fidelity mapping evaluator: a continuous-time Markov chain of
    the pipeline ⋈ processors ⋈ network cooperation.

    Each stage cycles through three phases — awaiting its input move,
    processing, awaiting its output move. Interior moves synchronize adjacent
    stages (the upstream must be ready to put, the downstream ready to get);
    the boundary moves synchronize with the always-ready user. Processing
    rates μ and move rates λ come from a {!Costspec.t}; processor sharing is
    folded into μ (equitable division among colocated stages). The state
    space is 3^Ns; steady state is computed by uniformized power iteration
    and throughput as μ₀ · P\[stage 0 is processing\].

    With exponential assumptions this is exact, so it validates the analytic
    bottleneck model and the simulator against each other (experiment E1). *)

type t

val build : service_rates:float array -> move_rates:float array -> t
(** [service_rates] has length Ns (μ per stage), [move_rates] length Ns + 1
    (λ per edge, input edge first). All rates must be positive; [infinity]
    is allowed and treated as a very fast but finite rate (1e12). Raises
    [Invalid_argument] on length or sign errors, or if Ns > 13 (3^Ns states
    would not fit in memory). *)

val of_costspec : Costspec.t -> Mapping.t -> t

type solver =
  | Gauss_seidel
      (** in-place sweeps over the balance equations; robust to stiff chains
          (rates spanning many orders of magnitude) — the default *)
  | Power
      (** uniformized power iteration; kept for the solver ablation — its
          convergence degrades as max-rate/min-rate grows *)

(* lint: unused-export-ok used by throughput; test_model checks it against test/ctmc_ref.ml *)
val steady_state : ?solver:solver -> ?max_iter:int -> t -> float array
(** The stationary distribution π, one entry per state. Raises [Failure]
    if the L1 difference between successive sweeps does not fall to 1e-12
    within [max_iter] (default 200_000) sweeps. *)

val throughput : ?solver:solver -> ?max_iter:int -> t -> float
(** Items per second through the pipeline. *)
