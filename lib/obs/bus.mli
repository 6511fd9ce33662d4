(** The event bus: the single channel every instrumented component emits
    structured {!Event.t}s on.

    A bus belongs to a clock (the DES engine's virtual clock, or a
    wall-clock for direct execution); {!emit} stamps each payload with the
    clock reading and a monotonically increasing sequence number, then
    hands the event to every subscribed sink in subscription order,
    synchronously. Sinks must not emit back onto the bus.

    Hot call sites guard their emits with {!active} so that a run with no
    full-stream sink attached constructs no payloads at all. Rare control
    events (crash/recovery, adaptation decisions) are emitted unguarded so
    that {!Control}-interest sinks — internal machinery such as the
    simulator's fault handler — keep working on an otherwise silent bus. *)

type t

type sink = Event.t -> unit

type interest =
  | All  (** Wants the full event stream; keeps the guarded hot path on. *)
  | Control
      (** Only needs the sparse control events that are emitted
          unconditionally. A [Control] sink still receives every event that
          is actually emitted; it just does not, by itself, make {!active}
          true and so does not force the per-item hot emits. *)

val create : unit -> t
(** A fresh bus. Its clock reads [0.0] until {!set_clock}. *)

val set_clock : t -> (unit -> float) -> unit
(** Rebind the time source (the DES engine does this once at creation). *)

val now : t -> float
(** Current clock reading. *)

val subscribe : ?interest:interest -> t -> sink -> unit
(** Attach a sink ([interest] defaults to [All]) for the bus's lifetime;
    it sees every event emitted after this call. Amortised O(1). *)

val active : t -> bool
(** [true] iff at least one [All]-interest sink is attached — O(1). Hot
    call sites check this before constructing an event payload:
    [if Bus.active bus then Bus.emit bus (...)]. *)

val emit : t -> Event.payload -> unit
(** Stamp and deliver to all sinks. The sequence number advances on every
    call, sinks or not; the payload is only stamped into an event (and thus
    allocated onto sinks) when at least one sink of any interest is
    attached. *)

val events_emitted : t -> int
(** Total events stamped so far (the next event's [seq]). *)
