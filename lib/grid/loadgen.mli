(** Background-load generators for non-dedicated grid nodes.

    A profile describes how a node's availability evolves over simulated
    time; {!apply_until} schedules the corresponding events, and {!drive}
    does the same for any settable signal (link quality in {!Netgen}).
    Profiles are plain data so experiment specifications can carry them. *)

type profile =
  | Dedicated  (** availability stays 1.0 *)
  | Constant of float  (** fixed availability in [0,1] *)
  | Step of { at : float; level : float }
      (** availability drops (or rises) to [level] at time [at] *)
  | Steps of (float * float) list  (** explicit (time, availability) schedule *)
  | Sine of { period : float; base : float; amplitude : float; sample_every : float }
      (** availability = base + amplitude·sin(2πt/period), sampled *)
  | Random_walk of { every : float; sigma : float; lo : float; hi : float }
      (** Gaussian increments every [every] s, reflected into [lo, hi] *)
  | Markov_on_off of { to_busy_rate : float; to_free_rate : float; busy_level : float }
      (** exponential holding times; free = 1.0, busy = [busy_level] *)
  | Playback of (float * float) list
      (** replay a recorded availability trace *)

val drive :
  ?rng:Aspipe_util.Rng.t ->
  who:string ->
  horizon:float ->
  Aspipe_des.Engine.t ->
  level:float ->
  (float -> unit) ->
  profile ->
  unit
(** [drive ~who ~horizon engine ~level set profile] schedules [profile]'s
    changes of a signal as calls of [set] on [engine]. [level] is the
    signal's current value, where a random walk starts. Self-rescheduling
    profiles (sine, random walk, Markov) stop after [horizon], so bounded
    simulations terminate. A bad profile raises [Invalid_argument] with a
    message that starts with [who]; so does a stochastic profile without
    [rng]. *)

val apply_until :
  ?rng:Aspipe_util.Rng.t -> horizon:float -> Topology.t -> int -> profile -> unit
(** {!drive} on node [i]'s availability, starting from its current value. *)
