(** E10 (figure): real parallel speedup of the shared-memory backend.

    The 5-stage image-filter chain runs over a batch of frames, sequentially
    and fused into 1..K domain groups; a farm sweep over workers covers the
    stage-replication story. Wall-clock numbers, so results vary with the
    host — the reproduction target is the shape (monotone speedup, saturation
    at the stage/core bound). *)

val run_e10 : quick:bool -> unit
