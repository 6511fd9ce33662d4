(** Open arrival processes for serving workloads.

    Where {!Aspipe_skel.Stream_spec} describes a closed, finite batch whose
    arrival instants are materialized up front, an [Arrival.t] is a lazy
    process: {!schedule} plants exactly one pending arrival event on the
    engine at a time, and each firing draws the next instant — so a serving
    run only ever pays for the arrivals it reaches, and an unbounded
    process is perfectly representable. A closed stream's materialized
    instants replay verbatim through {!replay}. *)

type t

val poisson : rate:float -> t
(** Homogeneous Poisson process: exponential inter-arrivals at [rate]. *)

val mmpp : rates:float array -> mean_holding:float array -> t
(** Cyclic Markov-modulated Poisson: state [s] emits at [rates.(s)] and is
    held Exp-distributed with mean [mean_holding.(s)], states visited in
    array order (a 2-state instance alternates bursty/idle). Raises
    [Invalid_argument] on mismatched lengths, negative rates, non-positive
    holdings, or all-zero rates. *)

val replay : float array -> t
(** Replay a recorded arrival trace verbatim (non-decreasing, non-negative
    instants; the array is copied). Round-trips with {!times}. *)

val diurnal : base:float -> amplitude:float -> period:float -> t
(** Sine-modulated non-homogeneous Poisson process (NHPP): intensity
    [base + amplitude·sin(2πt/period)], with [0 ≤ amplitude ≤ base] so it
    stays non-negative. Like {!flash_crowd}, it is generated by
    Lewis–Shedler thinning against its peak rate. *)

val flash_crowd :
  base:float -> peak:float -> at:float -> ramp:float -> decay:float -> t
(** Steady [base] until [at], linear ramp to [peak] over [ramp] seconds,
    then exponential relaxation back towards [base] with time constant
    [decay]. *)

val times : until:float -> rng:Aspipe_util.Rng.t -> t -> float array
(** Materialize the arrival instants in [\[0, until\]], non-decreasing. This is the same generator {!schedule}
    drives — [replay (times ... t)] reproduces [t]'s draw exactly — meant
    for tests, trace capture and closed-form comparisons, not for the hot
    path. *)

val schedule :
  until:float ->
  rng:Aspipe_util.Rng.t ->
  engine:Aspipe_des.Engine.t ->
  t ->
  f:(unit -> unit) ->
  unit
(** Drive [f] once per arrival as self-rescheduling engine events: one
    pending event at a time, the next instant drawn lazily inside the
    previous firing. Stops past [until].
    [rng] should be a dedicated split so the draw order is independent of
    everything else on the engine. *)

val parse_spec : string -> t
(** Parse the CLI grammar [KIND:ARGS] (same idiom as
    [Aspipe_fault.Fault.parse_spec]): [poisson:RATE],
    [diurnal:BASE,AMPLITUDE,PERIOD], [flash:BASE,PEAK,AT,RAMP,DECAY],
    [mmpp:RATE/HOLD,RATE/HOLD,...] or [replay:T1,T2,...]. Raises
    [Invalid_argument] with a message naming the grammar on any malformed
    spec (and via the smart constructors on out-of-range values). *)

val pp : Format.formatter -> t -> unit
