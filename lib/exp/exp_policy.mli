(** E17 (table): ablating the adaptation policy itself.

    The same dynamic grid as the campaign (a flapping node, a wandering
    node), one workload, several seeds — swept across the policy family:
    never adapt, the threshold trigger at three drop levels, periodic
    re-evaluation, and the eager always-best policy, plus the cool-down
    disabled variant (the thrashing control). Reports makespan (mean ± CI)
    and migration counts, so the cost of each design ingredient is visible
    in one table. *)

val run_e17 : quick:bool -> unit
