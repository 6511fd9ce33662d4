(** E5 and E6: how the pattern and its decision path scale.

    E5 (figure): simulated throughput of an 8-stage pipeline as the grid
    grows from 1 to 32 processors, compute-bound and communication-bound
    variants, against the ideal staircase 10 / ⌈8/Np⌉.

    E6 (table): wall-clock cost of the mapping decision itself — exhaustive
    vs greedy+hill-climb search under the analytic evaluator, and CTMC
    solve cost per state-space size. The adaptation loop is only viable if
    this stays far below the monitoring interval. *)

val run_e5 : quick:bool -> unit

type e6_row = {
  stages : int;
  processors : int;
  space : int;  (** candidate mappings for exhaustive search *)
  exhaustive_ms : float;  (** full-evaluator walk over the materialized list *)
  incr_ms : float;  (** incremental branch-and-bound ({!Aspipe_model.Search.exhaustive_spec}) *)
  incr_scored : int;  (** leaves actually scored after pruning/canonicalization *)
  auto_ms : float;
  auto_evaluations : int;
  ctmc_states : int;
  ctmc_solve_ms : float;
}

(* lint: unused-export-ok used by E6's table; test_exp checks E6's claim on it *)
val e6_rows : quick:bool -> e6_row list
val run_e6 : quick:bool -> unit
