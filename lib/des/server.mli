(** A rate-modulated, FCFS, single-capacity server.

    This models one grid processor: jobs carry an amount of abstract work and
    are served one at a time in arrival order; the instantaneous service rate
    (work units per second) is a {!Signal.t}, so when background load changes
    mid-service the completion time of the in-flight job is re-derived from
    its remaining work — service progress integrates the piecewise-constant
    rate signal exactly. A rate of zero stalls the server (the job stays,
    no completion event is pending) until the rate becomes positive again. *)

type t

val create : Engine.t -> rate:Signal.t -> t
(** The server subscribes to [rate]; the signal may be shared. *)

val submit :
  t -> work:float -> tag:int -> on_start:(int -> unit) -> (int -> unit) -> unit
(** [submit t ~work ~tag ~on_start k] enqueues a job of [work] units; [k tag]
    runs at the simulated instant the job completes, and [on_start tag] at
    the instant the job enters service. Callbacks that take the tag can be
    built once per caller rather than once per job. Raises
    [Invalid_argument] if [work < 0] or not finite. *)

val drop_all : t -> int list
(** Abort the in-service job and discard every waiting job without running
    any of their callbacks — the processor crashed. Returns the tags of the
    dropped jobs, in-service first then queue order. The server is left
    idle and usable (a later {!submit} starts normally). *)
