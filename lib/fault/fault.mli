(** Fault injection: scheduled crash/recovery of nodes and partition of
    links, mirroring how {!Aspipe_grid.Loadgen} schedules background load.

    A {!profile} is a declarative fault schedule. Applied to a node it
    drives {!Aspipe_grid.Node.set_up}; applied to a link pair it drives
    both directions' quality to the floor (a blackout — the grid link
    degrades to near-uselessness rather than dropping messages, so no
    in-flight transfer is ever silently lost). Profiles live in
    {!Aspipe_core.Scenario.t}'s [faults] / [net_faults] fields so every
    strategy run replays the identical fault schedule. *)

type profile =
  | Crash_at of float  (** one-shot fail-stop crash at the given time *)
  | Crash_recover of { at : float; duration : float }
      (** crash at [at], recover at [at +. duration] *)
  | Windows of (float * float) list
      (** a list of [(at, duration)] down windows *)
  | Poisson of { mtbf : float; mttr : float }
      (** alternating exponential up/down holds — the classic crash–repair
          renewal process; needs [~rng] *)

val pp_profile : Format.formatter -> profile -> unit

val check_horizon : horizon:float -> profile -> unit
(** Raises [Invalid_argument], naming mtbf, mttr and the horizon, when a
    [Poisson] profile cannot be planned up to [horizon]:
    [horizon / (mtbf + mttr)], the expected number of crash–repair cycles
    before it, exceeds 10⁶ (an infinite horizon always does). The schedule
    is drawn whole before the run starts, so such a profile would exhaust
    memory. Other profiles pass. *)

val apply_node :
  ?rng:Aspipe_util.Rng.t ->
  horizon:float ->
  Aspipe_grid.Topology.t ->
  int ->
  profile ->
  unit
(** Schedule the profile's up/down transitions for one node. Stochastic
    profiles draw their whole schedule from [~rng] up front, so the fault
    times are a pure function of the seed. Raises [Invalid_argument] on
    malformed profiles, a missing [~rng], or a [Poisson] profile that
    {!check_horizon} refuses. *)

val apply_link :
  ?rng:Aspipe_util.Rng.t ->
  horizon:float ->
  Aspipe_grid.Topology.t ->
  int ->
  int ->
  profile ->
  unit
(** [apply_link topo a b profile] partitions the (a, b) pair: both
    directions are driven to the quality floor for the profile's down
    periods and restored to nominal (1.0) quality on recovery. *)

val parse_spec : string -> (int * profile) list
(** Parse the CLI fault grammar: semicolon-separated [target:profile]
    clauses where a profile is [crash@T], [crash@T+D], [mtbf=M,mttr=R] or
    [windows=T1+D1,T2+D2,...] — e.g.
    ["0:crash@120;1:mtbf=500,mttr=50"]. Raises [Invalid_argument] with a
    clause-naming message on malformed input. *)
