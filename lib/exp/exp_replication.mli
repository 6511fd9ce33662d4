(** E14 (table + figure): replicating the hot stage inside the pipeline.

    A 4-stage pipeline whose third stage costs 4× the others cannot beat
    [rate/4·work] under any one-node-per-stage mapping; farming that stage
    over k nodes should raise throughput to min(k · rate/4·work, rate/work)
    — saturating when the hot stage stops being the bottleneck. The table
    sweeps the replica count and compares measured against the replication
    model; the greedy {!Aspipe_model.Repl_model.best_replication} gets the
    last row for a fixed node budget. *)

val run_e14 : quick:bool -> unit
