(** E16 (figure): when does a faster remote site pay?

    Three local nodes plus a two-node remote site that is [r×] faster but
    behind a 150 ms, 2 MB/s wide-area link. Sweeping [r], the best mapping
    confined to the local site is constant, while the unconstrained best
    eventually jumps across the WAN — the classic grid offload crossover.
    The model picks each mapping; the simulator measures it. *)

val run_e16 : quick:bool -> unit
