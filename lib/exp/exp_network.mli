(** E15 (figure + table): adaptation to {e network} change.

    The complementary story to E3: the processors stay healthy, but every
    inter-node route congests to 10% quality mid-run. For a pipeline with
    real payloads, the spread mapping's stage cycles inflate with the moves;
    the right response is to {e colocate} — trading processor sharing for
    network avoidance — exactly the trade-off the mapping model encodes. The
    static schedule keeps paying the congested links; the adaptive engine,
    fed by the monitor's link-quality forecasts, re-maps onto fewer nodes. *)

val run_e15 : quick:bool -> unit
