(** E18–E20: the fault-tolerance evaluation.

    Every strategy replays the {e identical} fault schedule (it lives in
    the scenario, not the runner), so the outcomes differ only in how each
    strategy responds to the same failures.

    - E18 (table): a one-shot fail-stop crash of the node the model-best
      static schedule relies on, 70% of the way through its nominal
      makespan. Static DNFs; restart-from-scratch completes but pays the
      abandoned work plus a detection timeout; adaptive failover re-maps
      the orphaned stages and replays only the checkpointed items.
    - E19 (table): Poisson crash-repair (MTTR 40 s) on three of four
      nodes across an MTBF sweep. Static waits out every repair on the
      same node; adaptive fails over and re-absorbs recovered nodes.
    - E20 (table): E15's congestion story with a blackout — all
      inter-node routes drop to the quality floor mid-run. The adaptive
      engine's link forecasts collapse and the search colocates. *)

val run_e18 : quick:bool -> unit

val run_e19 : quick:bool -> unit

val run_e20 : quick:bool -> unit
