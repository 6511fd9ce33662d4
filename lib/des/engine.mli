(** The discrete-event simulation engine.

    A single-threaded event loop over a virtual clock. All grid components
    (nodes, links, load generators, monitors, the adaptive engine itself)
    schedule callbacks here; the loop fires them in timestamp order, ties
    broken by scheduling order, so runs are fully deterministic. *)

type t

type handle
(** Identifies a scheduled event so it can be cancelled. *)

val none : handle
(** A handle of no event, for a holder with nothing pending; cancelling it
    does nothing. *)

val create : unit -> t

val now : t -> float
(** Current virtual time, in seconds; starts at 0. *)

val bus : t -> Aspipe_obs.Bus.t
(** The engine's telemetry bus. Its clock is this engine's virtual clock,
    so any component holding the engine can emit correctly stamped
    structured events, and any observer can subscribe sinks before a run
    starts. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] fires [f] at [now t +. delay]; the event cannot
    be cancelled, and scheduling it allocates nothing.
    Raises [Invalid_argument] if [delay < 0] or is not finite. *)

val schedule_cancellable : t -> delay:float -> (unit -> unit) -> handle
(** {!schedule}, returning a handle for {!cancel}. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** [schedule_at t ~time f] fires [f] at absolute [time] (must be ≥ [now t]);
    like {!schedule}, the event cannot be cancelled. *)

val schedule_series : t -> times:float array -> (int -> unit) -> unit
(** [schedule_series t ~times f] fires [f i] at [times.(i)] for every [i],
    in the order [n] calls of [schedule_at] made now would fire them, ties
    with other events included; but only the next instant is pending at
    any time. Raises [Invalid_argument] at the call if an instant is not
    finite, earlier than [now t], or earlier than the one before it. *)

val cancel : handle -> unit
(** Cancel a pending event; firing a cancelled handle is a no-op.
    Idempotent, and safe on already-fired events. *)

val step : t -> bool
(** Fire the next event; [false] if none remain. *)

val run : ?until:float -> t -> unit
(** [run t] drains the event queue. With [~until], stops once the next event
    is strictly later than [until] and advances the clock to [until]. *)

val periodic : t -> ?start:float -> every:float -> (unit -> bool) -> unit
(** [periodic t ~every f] fires [f] at [start] (default [now + every]) and
    then every [every] seconds for as long as [f] returns [true]. *)
