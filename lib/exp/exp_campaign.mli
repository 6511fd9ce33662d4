(** E11 (table): the end-to-end campaign — four workload shapes on a
    dynamically loaded 4-node grid, five mapping strategies, multiple seeds.
    The headline reproduction claim: the adaptive pattern beats every
    non-clairvoyant baseline on dynamic scenarios and sits within a modest
    factor of the clairvoyant engine. *)

val run_e11 : quick:bool -> unit
