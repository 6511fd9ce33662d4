(** Latency service-level objectives over windowed sojourn times.

    A spec reads "the [target_quantile] of per-item sojourns must stay
    within [threshold] seconds, assessed per [window]-second window". The
    meter accumulates departures, {!close_window} seals the current window
    into a {!window_stats} (emitted on the event bus as
    [Aspipe_obs.Event.Slo_window] by the serving driver), and attainment is
    the fraction of windows that met their quantile budget. *)

type spec = private { target_quantile : float; threshold : float; window : float }

val spec : target_quantile:float -> threshold:float -> window:float -> spec
(** Raises [Invalid_argument], naming the value, unless [target_quantile ∈
    (0,1)], [threshold] is positive (an infinite one is never violated) and
    [window] is positive and finite. NaN is refused in every field. *)

type window_stats = {
  index : int;  (** 0-based window number *)
  until : float;  (** virtual time the window was closed at *)
  completions : int;
  violations : int;  (** departures whose sojourn exceeded the threshold *)
  attained : bool;
      (** [violations ≤ (1 − target_quantile) · completions]; an empty
          window is vacuously attained *)
}

type t

val create : spec -> t

val observe : t -> sojourn:float -> unit
(** Account one departure into the current window. *)

val close_window : t -> now:float -> window_stats
(** Seal the current window, reset the in-window counters, and return the
    sealed stats (also appended to {!windows}). *)

val windows : t -> window_stats list
(** All sealed windows, oldest first. *)

val attainment : t -> float
(** Fraction of sealed windows attained; [nan] before any window closed. *)

val violations_total : t -> int

val pp_spec : Format.formatter -> spec -> unit
