(** Wall-clock profiler for the campaign runner.

    Everything else in this tree lives in virtual time (lint R1); this
    module is the one sanctioned consumer of a real clock outside the
    runner, and it reads the {e monotonic} clock only — wall-clock epochs
    never enter recorded data, so profiles are comparable across runs.

    Recording is a per-domain append into a buffer reached through
    [Domain.DLS]: no locks, no cross-domain traffic on the hot path. The
    global registry of buffers is an [Atomic.t] list pushed with CAS when a
    domain records its first span. With the profiler off (the default),
    {!record} is a no-op behind one atomic load and no buffer is ever
    allocated; call sites must still guard with [if Prof.enabled () ...]
    (lint R7) so argument construction costs nothing either. *)

type kind =
  | Task          (** a pool task; [a]/[b]/[words] carry GC deltas *)
  | Steal
      (** instant: a claim that took another worker's task. Nothing records
          it since the pool claims from one queue; the layered bench still
          counts it. *)
  | Await_wait    (** a sleep inside [Pool.await] while a nested batch drains *)
  | Worker_idle   (** a worker sleeping because nothing is claimable *)
  | Cache_probe   (** result-cache key+lookup; [a] = 1 on hit *)
  | Cache_store   (** result-cache write *)
  | Out_flush     (** captured output leaving a scope; [a] = bytes *)
  | Gc_sample     (** instant: [a]/[b] minor/major collections, [words] minor words *)
  | Queue_sample  (** instant: [a] tasks queued at a claim *)

type span = {
  kind : kind;
  label : string;  (** task id for [Task]; "" when the kind says it all *)
  t0 : float;      (** seconds; {!collect} rebases to the profile origin *)
  t1 : float;      (** = [t0] for instant kinds *)
  a : int;
  b : int;
  words : float;
}

type timeline = {
  order : int;      (** display order: 0 = main, 1 + i = worker i *)
  domain : string;  (** "main", "worker 3", or "domain <uid>" *)
  spans : span list;  (** sorted by [t0], parents before children *)
}

type profile = {
  origin : float;  (** monotonic seconds subtracted from every span *)
  timelines : timeline list;  (** sorted by [order], then name *)
}

val now : unit -> float
(** Monotonic seconds (arbitrary origin). Usable with the profiler off —
    the pool's busy accounting reads it unconditionally. *)

val enabled : unit -> bool

val enable : unit -> unit
(** Turn recording on, drop any previously collected spans, and install
    the {!Aspipe_util.Out} capture probe (so captured-output flushes are
    recorded as {!Out_flush} spans). *)

val disable : unit -> unit
(** Stop recording and clear the capture probe. Collected spans remain
    available to {!collect}. *)

val set_domain : order:int -> string -> unit
(** Name the calling domain's timeline. No-op while disabled. *)

val record :
  kind -> label:string -> t0:float -> t1:float -> a:int -> b:int -> words:float -> unit
(** Append one span to the calling domain's buffer. No-op while disabled,
    but call sites outside [lib/prof/] must still guard with
    [if Prof.enabled () ...] (lint R7). *)

val record_gc : label:string -> unit
(** Record a [Gc_sample] instant from [Gc.quick_stat]. Guard like {!record}. *)

val collect : unit -> profile
(** Snapshot every domain's buffer, rebased so the earliest span starts at
    0. Call only once recording has quiesced (workers joined); buffers are
    single-writer and collection does not synchronise with live appends. *)

val kind_name : kind -> string
