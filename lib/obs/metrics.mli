(** The metrics registry: counters, gauges and log-bucketed histograms.

    A registry is a flat, name-keyed collection of instruments. Lookups by
    name are idempotent — asking twice for the same counter returns the
    same cell (asking for the same name as a different kind raises), so
    meters can create instruments lazily on the hot path. {!snapshot}
    produces an immutable, name-sorted view the experiments, the bench
    harness and the [aspipe metrics] subcommand render or serialize. *)

type t

val create : unit -> t

module Counter : sig
  type cell

  val get : t -> string -> cell
  val incr : cell -> unit
  val add : cell -> int -> unit
end

module Gauge : sig
  type cell

  val get : t -> string -> cell
  val set : cell -> float -> unit
  val add : cell -> float -> unit
end

module Histogram : sig
  (** Power-of-two log-bucketed histogram: an observation [v > 0] lands in
      the bucket [\[2^(e-1), 2^e)] containing it; zero and negative
      observations share a dedicated underflow bucket. Exact count, sum,
      min and max are kept alongside, so means are exact and quantiles are
      bucket-resolution estimates (geometric bucket midpoint, clamped to
      the observed range). *)

  type cell

  val get : t -> string -> cell
  val observe : cell -> float -> unit
  (* lint: unused-export-ok used by snapshot; test_obs checks it directly *)
  val mean : cell -> float
  (** [nan] when empty. *)

  (* lint: unused-export-ok used by snapshot; test_obs checks it directly *)
  val quantile : cell -> float -> float
  (** [quantile cell q] with [q] in [\[0, 1\]]; [nan] when empty. *)
end

type histogram_stats = {
  count : int;
  sum : float;
  min : float;
  max : float;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
  p999 : float;
  buckets : (float * float * int) list;
      (** non-empty buckets as [(lo, hi, count)], ascending; the underflow
          bucket reports as [(0., 0., count)] *)
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram_stats) list;
}
(** All three sections sorted by instrument name. *)

val snapshot : t -> snapshot

val render : snapshot -> string
(** Human-readable tables (counters+gauges, then one histogram summary row
    per histogram, then per-histogram bucket bars). *)

val snapshot_to_json : snapshot -> Json.t
