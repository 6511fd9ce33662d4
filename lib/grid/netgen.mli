(** Network-quality generators — {!Loadgen}'s counterpart for links.

    A {!Loadgen.profile} is reinterpreted with "availability" read as link
    quality (1.0 = nominal) and run by {!Loadgen.drive}. {!apply_pair}
    drives both directions of a node pair — the common case for a
    congested route. *)

val apply_pair :
  ?rng:Aspipe_util.Rng.t ->
  horizon:float ->
  Topology.t ->
  int ->
  int ->
  Loadgen.profile ->
  unit
(** Drive both directions between two nodes with the same profile (the two
    directions share every event, as one congested route would). A random
    walk starts from the forward link's current quality. *)
