(** E13: ablations of two design choices DESIGN.md calls out.

    (a) Buffer capacity. The CTMC's synchronization is bufferless while the
    default simulator queues without bound; the analytic model is the
    saturation bound. Sweeping the simulator's per-stage buffer capacity
    from 1 to unbounded should move measured throughput monotonically from
    near the CTMC's figure toward the analytic bound — evidence that the
    two evaluators bracket reality for the right structural reason.

    (b) CTMC solver. Gauss–Seidel vs uniformized power iteration on chains
    whose rates span increasing orders of magnitude: both give the same
    throughput where power converges at all, but its cost explodes with
    stiffness while Gauss–Seidel stays flat — why it is the default. *)

val run_e13 : quick:bool -> unit
