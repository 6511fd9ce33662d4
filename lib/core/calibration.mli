(** The calibration phase of the adaptive pattern.

    Before execution, each stage is probed: a handful of representative items
    run on a reference processor and their service times are measured. The
    resulting per-stage work estimates (mean ± spread, in work units) replace
    the unknown true costs in every model evaluation the engine performs.
    Estimates are noisy by construction — the probes sample the stage's true
    work distribution and the measurement itself can carry error — so the
    adaptive engine downstream is tested against realistic calibration
    quality. *)

type t

val run :
  ?probes:int ->
  ?measurement_noise:float ->
  ?bus:Aspipe_obs.Bus.t ->
  rng:Aspipe_util.Rng.t ->
  Aspipe_skel.Stage.t array ->
  t
(** [probes] items per stage (default 5; must be ≥ 1). [measurement_noise]
    is the relative std-dev of the timing measurement (default 0.01).
    When [bus] is given, each probe measurement is emitted as a
    [Calibration_sample] event, so telemetry sinks see the inputs of the
    initial scheduling decision. *)

val work_vector : t -> float array
(** Mean estimated work per stage, the vector handed to {!Aspipe_model.Costspec.with_stage_work}. *)

val relative_error : t -> Aspipe_skel.Stage.t array -> float array
(** Per-stage |estimate − true mean| / true mean, for the calibration
    accuracy experiment. *)

val pp : Format.formatter -> t -> unit
