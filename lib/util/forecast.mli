(** Resource-performance forecasting, in the style of the Network Weather
    Service (Wolski et al., FGCS 1999), which the original grid deployment
    relied on for availability and latency predictions.

    A forecaster consumes a stream of measurements and predicts the next one.
    The {!adaptive} forecaster runs a whole bank of primitive forecasters and
    answers with the one whose past mean-squared error is currently lowest —
    the NWS "dynamic predictor selection" idea.

    Cost contract. Every forecaster is one bank of members that a single
    {!observe} updates together; a primitive forecaster is a bank of one,
    so all of them run the same code. Member predictions and error sums
    live unboxed in flat float arrays, the members share one observation
    and one error count, and the sliding members read one ring of the last
    values. {!observe} computes every prediction once and caches it, so
    {!predict} is a read until the next observation. Neither allocates
    beyond the boxing of its float argument or result at a call that is not
    inlined. A sliding mean sums its window oldest first on every
    observation, O(window) additions, since a running sum would change the
    bits. A sliding median keeps its window sorted across observations,
    NaNs first: the value the window drops is located by comparison and one
    shift makes room for the new one, O(window) comparisons and moves and no
    allocation. The ensemble divides an error sum by the shared error count
    only for a member whose sum is below the best so far. Every prediction
    is bit-identical to the straightforward definitions below (mean summed
    oldest first, median by {!Stats.quantile}'s arithmetic, least MSE with
    the first member winning ties), except that a sliding median over a
    window holding both [-0.] and [0.] may return either zero, or over NaNs
    of different payloads either NaN. *)

type t

val name : t -> string

val observe : t -> float -> unit
(** [observe t x] feeds the next measurement. Before the first observation,
    [predict] returns [fallback] (default [0.]). *)

val predict : t -> float
(** [predict t] is the forecast of the next measurement. *)

(* lint: unused-export-ok used by members; test_util checks it directly *)
val mse : t -> float
(** [mse t] is the running mean squared one-step-ahead error of this
    forecaster over all observations so far ([nan] before the second). *)

val mae : t -> float
(** Running mean absolute one-step error ([nan] before the second). *)

val last_value : ?fallback:float -> unit -> t
(** Predicts the previous measurement. *)

val running_mean : ?fallback:float -> unit -> t
(** Predicts the mean of everything seen. *)

val sliding_mean : ?fallback:float -> window:int -> unit -> t
(** Predicts the mean of the last [window] measurements. *)

val sliding_median : ?fallback:float -> window:int -> unit -> t
(** Predicts the median of the last [window] measurements — robust to the
    spiky signals grids produce. *)

val ewma : ?fallback:float -> gain:float -> unit -> t
(** Exponentially weighted moving average with smoothing [gain] in (0,1];
    prediction p ← gain·x + (1−gain)·p. *)

(* lint: unused-export-ok used by adaptive's bank; test_util checks it against test/forecast_ref.ml *)
val trend : ?fallback:float -> gain:float -> unit -> t
(** Holt's double exponential smoothing: tracks a level and a slope, so
    steadily draining (or recovering) resources are extrapolated instead of
    lagged. Trend gain is [gain/2]. *)

(* lint: unused-export-ok used by adaptive's bank; test_util checks it against test/forecast_ref.ml *)
val ar1 : ?fallback:float -> unit -> t
(** Online first-order autoregression: fits x_t ≈ a·x_{t−1} + c by running
    least squares and predicts from the last observation. Falls back to the
    last value until the fit is identifiable. *)

val adaptive : ?fallback:float -> unit -> t
(** The NWS ensemble: last value, running mean, sliding mean/median over
    windows {5, 10, 25}, EWMA with gains {0.1, 0.25, 0.5, 0.75}, Holt trend
    and AR(1); predicts with the member of least running MSE. *)

val members : t -> (string * float) list
(** [members t] is the bank's per-member MSE (singleton for primitive
    forecasters) — used by the forecaster-accuracy experiment. *)
