(** A time-varying value inside a simulation.

    Signals carry node availability and a node's service rate. Setting a
    signal notifies subscribers synchronously (at the current virtual
    time) — this is how a rate change reaches the servers whose in-flight
    work it slows down. *)

type t

val create : float -> t
(** [create v0] — a signal with initial value [v0]. *)

val get : t -> float

val set : t -> float -> unit
(** [set s v] updates the value and invokes every subscriber with the old
    and new values. Setting the current value again is a no-op. *)

val subscribe : t -> (old_value:float -> new_value:float -> unit) -> unit
(** Subscribers are called in subscription order. *)
