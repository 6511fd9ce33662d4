(** The adaptive-vs-static experiments — the heart of the reproduction.

    E3 (figure): throughput timeline around a mid-run load step; the static
    schedule degrades and stays degraded, the adaptive pattern re-maps and
    recovers.

    E4 (figure): completion time versus the severity of an {e undisclosed}
    initial load on one node (the engine starts blind and must discover it),
    for blind-static, informed-static, adaptive and clairvoyant strategies.

    E7 (table): sensitivity of the adaptive pattern to its two key knobs —
    monitoring interval and adaptation threshold — in completion time and
    number of migrations.

    E8 (figure): the migration-cost crossover — sweeping stage state size
    until moving a stage costs more than it saves. *)

val run_e3 : quick:bool -> unit

val run_e4 : quick:bool -> unit

val run_e7 : quick:bool -> unit

val run_e8 : quick:bool -> unit
