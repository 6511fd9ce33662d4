(** E1 and E2: validating the mapping evaluators against the simulator.

    E1 (table): for every mapping of a 3-stage pipeline onto a 3-processor
    grid, predicted throughput from the analytic bottleneck model and the
    CTMC versus the measured simulation throughput, plus rank correlations.
    The analytic model is a saturation upper bound, the CTMC (whose
    synchronization structure is bufferless) a conservative lower bound; the
    reproduction claim is that both {e rank} mappings like the simulator.

    E2 (table): scenario suite in the style of the skeleton-scheduling
    literature — fast/slow links, busy/fast processors — comparing the
    model-chosen mapping against the simulated-best (oracle) mapping. *)

type e1_row = {
  mapping : int array;
  analytic : float;
  ctmc : float;
  simulated : float;
}

(* lint: unused-export-ok used by E1's table; test_exp checks E1's claim on it *)
val e1_rows : quick:bool -> e1_row list
(* lint: unused-export-ok used by E1's table; test_exp checks E1's claim on it *)
val e1_rank_correlations : e1_row list -> float * float
(** (analytic vs sim, ctmc vs sim). *)

val run_e1 : quick:bool -> unit

type e2_row = {
  label : string;
  model_mapping : int array;
  model_predicted : float;
  model_simulated : float;
  oracle_mapping : int array;
  oracle_simulated : float;
}

(* lint: unused-export-ok used by E2's table; test_exp checks E2's claim on it *)
val e2_rows : quick:bool -> e2_row list
val run_e2 : quick:bool -> unit
