(** Background-load generators for non-dedicated grid nodes.

    A profile describes how a node's availability evolves over simulated
    time; {!apply} schedules the corresponding events. Profiles are plain
    data so experiment specifications can carry them. *)

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

val apply_until :
  ?rng:Aspipe_util.Rng.t -> horizon:float -> Topology.t -> int -> profile -> unit
(** Like {!apply} but self-rescheduling profiles (sine, random walk, Markov)
    stop after [horizon], so bounded simulations terminate. *)
