(** Online and batch statistics.

    {!Welford} accumulates mean/variance in a single pass with good numerical
    behaviour; the batch helpers operate on float arrays. These are used by
    the calibration phase (service-time estimates), the monitors, and the
    experiment harness (mean ± confidence interval over seeds). *)

module Welford : sig
  type t
  (** Mutable single-pass accumulator. *)

  val create : unit -> t
  val add : t -> float -> unit
  val mean : t -> float
  (** [mean t] is [nan] when empty. *)

  (* lint: unused-export-ok used by Welford.stddev; test_util checks it directly *)
  val variance : t -> float
  (** Unbiased sample variance; [nan] when fewer than two observations. *)

  val stddev : t -> float
end

val mean : float array -> float
(* lint: unused-export-ok used by stddev; test_util checks it directly *)
val variance : float array -> float
(* lint: unused-export-ok used by confidence95; test_util checks it directly *)
val stddev : float array -> float

val quantile : float array -> float -> float
(** [quantile xs q] for [q] in [\[0,1\]], linear interpolation between order
    statistics (type-7). Raises [Invalid_argument] on empty input or [q]
    outside [\[0,1\]]. Does not modify [xs]. *)

val confidence95 : float array -> float * float
(** [confidence95 xs] is [(mean, half_width)] of a normal-approximation 95%
    confidence interval (half width = 1.96 · s/√n; 0 when n < 2). *)
