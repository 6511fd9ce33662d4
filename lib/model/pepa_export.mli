(** Export a pipeline performance model as PEPA source text.

    The stochastic-process-algebra formulation is the lingua franca of the
    skeleton-performance literature: stages cycle through
    [(move_i, λ_i).(process_i, μ_i).(move_{i+1}, λ_{i+1})], processors are
    choices over the [process] activities of their stages, the network is a
    choice over all [move] activities, and the whole system is the three-way
    cooperation. This module renders exactly that model for a given cost
    spec and mapping, so any PEPA workbench can cross-check the built-in
    CTMC solver (the rates are the ones {!Ctmc.of_costspec} uses). *)

val pipeline : Costspec.t -> Mapping.t -> string
(** The full PEPA model: stage, processor and network definitions plus the
    system equation and a throughput measure on [process1].
    Activities are 1-indexed, matching the published notation. *)

(* lint: unused-export-ok used by pipeline; test_model checks it directly *)
val rate_table : Costspec.t -> Mapping.t -> (string * float) list
(** The [(name, value)] rate bindings the model references, in definition
    order: [mu1 … muNs] then [lambda1 … lambdaNs+1]. *)
