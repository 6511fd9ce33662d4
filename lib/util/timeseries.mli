(** Piecewise-constant time series.

    Used for background-load signals (ground truth), monitor observations and
    throughput timelines. A series is a sorted sequence of [(t, v)] points;
    its value at time [x] is the [v] of the last point with [t <= x]. *)

type t

val create : ?initial:float -> unit -> t
(** [create ~initial ()] starts with value [initial] (default 0.) at t = −∞. *)

(* lint: unused-export-ok test-only (ROADMAP "Test-only exports") *)
val of_points : ?initial:float -> (float * float) list -> t
(** Builds a series from points; the list need not be sorted.
    Raises [Invalid_argument] on duplicate timestamps. *)

val add : t -> float -> float -> unit
(** [add t time value] appends a point. Raises [Invalid_argument] if [time]
    precedes the last recorded point (series are append-only). *)

(* lint: unused-export-ok test-only (ROADMAP "Test-only exports") *)
val value_at : t -> float -> float
(** [value_at t time] — the piecewise-constant evaluation. *)

(* lint: unused-export-ok test-only (ROADMAP "Test-only exports") *)
val points : t -> (float * float) list
(** Points in increasing time order. *)

(* lint: unused-export-ok test-only (ROADMAP "Test-only exports") *)
val integrate : t -> lo:float -> hi:float -> float
(** [integrate t ~lo ~hi] is ∫ value dt over [\[lo, hi\]]. *)

(* lint: unused-export-ok test-only (ROADMAP "Test-only exports") *)
val sample : t -> lo:float -> hi:float -> step:float -> (float * float) array
(** Evaluate on a regular clock; used to print figure series. *)
