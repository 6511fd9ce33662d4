(** The fast mapping evaluator: steady-state pipeline throughput by
    bottleneck analysis.

    Two families of stations bound the output rate:

    - every {e processor} serves the total work of the stages mapped to it:
      capacity [node_rate / Σ work];
    - every {e stage cycle} — a stage processes an item and then performs its
      synchronous output move before accepting the next: capacity
      [1 / (shared service time + output transfer time)].

    In steady state a saturated [Pipeline1for1] cannot beat its slowest
    station, and the bound is tight up to queueing noise — experiment E1
    quantifies this against the simulator and the CTMC. O(Ns + Np) per
    evaluation, so mapping search can afford thousands of calls. *)

type bottleneck = Processor of int | Stage_cycle of int

val throughput : Costspec.t -> Mapping.t -> float
(** Predicted items/second. *)

val bottleneck : Costspec.t -> Mapping.t -> bottleneck * float
(** The binding station and its capacity. *)

val upper_bound : Costspec.t -> float
(** A throughput no mapping of the spec exceeds: for every mapping [m],
    [not (throughput spec m > upper_bound spec)], bit for bit in float
    arithmetic, not just in ℝ. It ignores any pin on stage 0, so it holds
    for every pinned space too. O(Ns·Np²), no search.

    Each term replaces every stage's work by the smallest (or, for the
    heaviest stage, the largest) work and every output move by the
    cheapest move any stage has over any link. The bound is the smaller of
    two terms:
    - {e Dealing}: deal [Ns] stages of the smallest work, one at a time,
      each to the processor whose station stays highest after the add. A
      processor's station is the lower of its [rate / work] capacity and
      the cycle of one of its stages at its sharing count. The term is the
      lowest station of the loaded processors. This is list scheduling of
      identical jobs on uniform processors, which is optimal for max–min.
    - {e Largest stage}: the largest stage work served alone at the
      fastest rate, as a processor capacity and as a cycle.

    A zero-work stage leaves only the cycle part of the dealing term. The
    bound is [infinity] when a work is not finite or a rate or move is
    NaN. *)

val pp_bottleneck : Format.formatter -> bottleneck -> unit

(** Incremental re-scoring for mapping search.

    An [Incr.t] holds the station rates of one mapping in flat float arrays —
    per-processor capacities and per-stage cycles — plus a tracked minimum,
    and updates them under single-stage moves: a move re-derives only the two
    affected processors' capacities and the touched stage cycles, with the
    minimum recomputed lazily when the station holding it rises. Scores are
    {e bit-identical} to {!throughput} on the same spec and assignment (the
    arithmetic replicates [Costspec] formula-for-formula; per-processor work
    is re-summed in stage order, never delta-adjusted), which is what lets
    exhaustive search, hill-climbing, and branch-and-bound run on it without
    changing any decision the full evaluator would make. *)
module Incr : sig
  type t

  val create : Costspec.t -> Mapping.t -> t
  (** O(Ns·Np) build of the station state for an initial assignment. *)

  val move : t -> stage:int -> int -> unit
  (** [move t ~stage q] re-assigns [stage] to processor [q] and updates the
      affected stations — O(k) where [k] is the number of stages touching the
      two processors involved. A no-op when [stage] is already on [q]. *)

  val score : t -> float
  (** Throughput of the current assignment; equals
      [throughput spec (mapping t)] bit-for-bit. O(1) when the tracked
      minimum is valid, O(Ns + Np) rescan otherwise. *)

  val cycle_rate : Costspec.t -> int array -> sharing:int -> int -> float
  (** [cycle_rate spec assign ~sharing i] is stage [i]'s cycle-station rate
      when [i]'s processor hosts [sharing] stages: the float operations
      {!create} and {!move} use, in the same order. Only [assign.(i)] and
      [assign.(i + 1)] are read, so a prefix of an assignment suffices. Never
      increases as [sharing] grows, which makes it an admissible bound for
      branch-and-bound under a prefix's sharing counts. *)

  val assignment : t -> int -> int
  (** Processor currently hosting the given stage. *)

  val mapping : t -> Mapping.t
  (** Snapshot of the current assignment. *)

end
