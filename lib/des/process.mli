(** Process-style simulation on top of the event loop, via OCaml 5 effects.

    Callbacks are the engine's native currency, but many simulation actors
    read better as sequential code: "work, sleep, check, repeat". A process
    is exactly that — a plain function that performs {!sleep}, {!now},
    {!await} and mailbox operations; each suspension is compiled (by an
    effect handler) into an engine event, so processes interleave
    deterministically with every callback-based component on the same
    virtual clock.

    Operations marked {e inside a process} raise [Failure] when performed
    outside one. *)

val spawn : Engine.t -> (unit -> unit) -> unit
(** [spawn engine body] schedules [body] to start at the current instant
    under the process handler. *)

val sleep : float -> unit
(** {e Inside a process.} Suspend for the given virtual duration (≥ 0). *)

val now : unit -> float
(** {e Inside a process.} The current virtual time. *)

val await : (('a -> unit) -> unit) -> 'a
(** {e Inside a process.} General suspension: [await register] calls
    [register resume] immediately and suspends until [resume v] is invoked
    (exactly once — the continuation is one-shot); [v] becomes [await]'s
    return value. This is the bridge to any callback API:
    {[ await (fun k -> Server.submit server ~work ~tag:0 ~on_start:ignore (fun _ -> k ())) ]} *)

module Mailbox : sig
  (** An unbounded inter-process message queue on the virtual clock. *)

  type 'a t

  val create : Engine.t -> 'a t

  val send : 'a t -> 'a -> unit
  (** Callable from anywhere (processes or plain callbacks). If receivers
      are blocked, the longest-waiting one is resumed at the current
      instant. *)

  val recv : 'a t -> 'a
  (** {e Inside a process.} Take the next message, suspending while empty. *)
end
