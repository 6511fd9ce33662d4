(** E12: the task farm — stage replication — on the simulated grid, run as
    a one-stage {!Aspipe_skel.Repl_sim} under {!Aspipe_core.Adaptive_repl}.

    Part (a), table: dispatch disciplines on a heterogeneous but {e static}
    grid. Round-robin over all workers binds at the slowest node (predicted
    n·min rate), least-loaded approaches the capacity sum, and the model's
    best round-robin {e subset} beats round-robin-over-everything — measured
    against the {!Aspipe_model.Repl_model} predictions.

    Part (b), figure + table: a mid-run availability collapse on one member
    of the deal. The static round-robin farm collapses with it (equal shares
    wait on the slow member); the adaptive farm evicts the degraded worker
    and recovers; least-loaded degrades only gracefully. *)

val run_e12 : quick:bool -> unit
