(** Execution traces: what the simulated pipeline did.

    The trace is both the measurement instrument (throughput, completion
    time, sojourns and adaptations feed the experiments) and the
    observability channel the adaptive engine itself uses (windowed output
    rate).

    A trace is filled one of two ways, never both (each record would then
    be kept twice):
    - {e passed} to a simulator, which writes into it directly and leaves
      the bus's guarded per-item emits off. [Skel_sim] records what the
      summaries read: completions, each item's entry instant and
      open-arrival stamp; the adaptive and serving drivers add their
      committed adaptations. [Repl_sim] also records its services;
    - {e subscribed} to the engine bus with {!subscribe}, which records the
      full stream, per-service and per-transfer records included, at the
      price of switching those emits on. *)

type service = { item : int; stage : int; node : int; start : float; finish : float }
type transfer = { item : int; from_stage : int; src : int; dst : int; start : float; finish : float }
type adaptation = {
  at : float;
  mapping_before : int array;
  mapping_after : int array;
  predicted_gain : float;
  migration_cost : float;
}

type t

val create : unit -> t

val record_service : t -> service -> unit
(** Also records the service's start as the item's entry instant (see
    {!record_entry}). *)

(* lint: unused-export-ok used by subscribe; test_grid checks it directly *)
val record_transfer : t -> transfer -> unit
val record_completion : t -> item:int -> time:float -> unit
val record_adaptation : t -> adaptation -> unit

val record_entry : t -> item:int -> time:float -> unit
(** The instant [item] entered the pipeline: its first service start. The
    first record per item wins. Entry instants and arrival stamps are kept
    in dense float columns indexed by item id (NaN for "no record"), so
    ids must be non-negative and callers number them densely from 0:
    memory grows with the largest id recorded. Raises [Invalid_argument]
    on a negative [item]. *)

val record_arrival : t -> item:int -> time:float -> unit
(** [item]'s open-arrival stamp; the first record per item wins. Same
    column layout and [Invalid_argument] as {!record_entry}. *)

val subscribe : t -> Aspipe_obs.Bus.t -> unit
(** Attach this trace as an [All]-interest sink on an event bus:
    [Service_finish], [Transfer], [Completion], [Sojourn] and
    [Adaptation_committed] events are translated into the corresponding
    records (other events are ignored). This is the full-stream path, the
    only one that fills {!services} and {!transfers}; a trace subscribed
    here must not also be passed to a simulator. *)

val completions : t -> (int * float) array
(** (item, departure time), in departure order. *)

val items_completed : t -> int

val makespan : t -> float
(** Time of the last completion (0 if none). *)

val throughput : t -> float
(** [items_completed / makespan]; 0 when nothing completed. *)

val throughput_after : t -> float -> float
(** [throughput_after t t0] — steady-state estimate ignoring completions
    before [t0] (pipeline fill). *)

val throughput_series : t -> window:float -> (float * float) array
(** Windowed output rate: for each window [\[k·w, (k+1)·w)], the number of
    completions divided by [w], stamped at the window's midpoint. *)

val services : t -> service list
(** In recording order. A trace passed to [Skel_sim] holds none. *)

val service_times : t -> stage:int -> float array
(** Durations of every service of [stage]. *)

val transfers : t -> transfer list
val adaptations : t -> adaptation list
(** In time order. *)

val sojourns : t -> (int * float) array
(** Per-item sojourn series, in completion order: [(item, sojourn)] for
    every completed item whose entry instant is known. The entry instant is
    the item's open-arrival stamp when the trace holds one (serving runs),
    and its first service start otherwise — so histograms and quantiles are
    computable from any recorded trace, not just the mean. *)

val mean_sojourn : t -> float
(** Mean of the {!sojourns} series ([nan] if nothing completed). *)
