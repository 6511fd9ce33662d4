(** Input-stream specifications: how many items enter the pipeline, when,
    and how large each item's payload is on the user link.

    A stream spec describes a {e closed} input: a known, finite batch whose
    arrival instants can be materialized up front. Open-ended serving
    workloads (time-varying Poisson, Markov-modulated, trace replay) live
    in [Aspipe_serve.Arrival], which generates arrivals lazily on the
    engine; a closed stream's materialized instants replay there verbatim
    through [Arrival.replay]. *)

type arrival =
  | Immediate  (** the whole input set is available at t = 0 *)
  | Spaced of float  (** one item every [interval] seconds *)
  | Poisson of float  (** exponential inter-arrivals with the given rate *)
      (** Note: these constructors are kept for closed-batch experiments
          (E1–E20) and remain fully supported there, but new open-arrival
          work should prefer [Aspipe_serve.Arrival] — [Poisson] here is the
          bounded, pre-materialized form of [Arrival.poisson]. *)

type t = { items : int; arrival : arrival; item_bytes : float }

val make : ?arrival:arrival -> ?item_bytes:float -> items:int -> unit -> t
(** Defaults: [Immediate] arrivals, [1e5] bytes per item. Raises
    [Invalid_argument] naming the value if [items < 1], [item_bytes] or a
    [Spaced] interval is negative, NaN or infinite, or a [Poisson] rate is
    not positive (NaN included). *)

val arrival_times : t -> Aspipe_util.Rng.t -> float array
(** Materialize the arrival instants, length [items], non-decreasing. *)
