(** Adaptation policies: when (and to what) the running pipeline re-maps.

    At every evaluation epoch the engine hands the policy a {!context} built
    from monitor forecasts and the execution trace; the policy answers
    {!decision}. Policies are values carrying their own state (cool-down
    clocks etc.), so distinct runs need distinct policy values — obtain them
    from the constructors below. *)

type serving = {
  backlog : int;  (** items injected but not yet departed *)
  arrival_rate : float;  (** observed arrivals/s over the last window *)
  p99_sojourn : float;
      (** windowed p99 latency estimate; [nan] before any departure *)
  sojourn_slope : float;
      (** d(p99)/dt across the last two windows (0 when unknown) *)
  slo_threshold : float;  (** the SLO latency bound, seconds *)
  choose_cheapest : headroom:float -> Aspipe_model.Mapping.t option;
      (** cheapest mapping (fewest distinct nodes, then best predicted
          rate) whose predicted throughput still covers
          [arrival_rate × headroom]; [None] when nothing qualifies *)
}
(** Signals only an open-arrival (serving) run can produce. The serving
    driver fills them in; the closed-stream engine passes [None] and the
    serving-only policies below degrade to [Keep]. *)

type context = {
  time : float;  (** current virtual time *)
  current : Aspipe_model.Mapping.t;
  predictor : Aspipe_model.Predictor.t;
      (** built from the freshest forecasts and calibrated work *)
  observed_throughput : float;  (** items/s over the last evaluation window *)
  adopted_throughput : float;
      (** what the model promised when the current mapping was adopted *)
  items_remaining : int;
  migration_stall : Aspipe_model.Mapping.t -> float;
      (** estimated stall (s) of switching to a candidate now *)
  choose_best : unit -> Aspipe_model.Search.result;
      (** run the mapping search under current beliefs *)
  serving : serving option;
      (** open-arrival signals; [None] on closed streams *)
}

type decision = Keep | Remap of Aspipe_model.Mapping.t

type t

val name : t -> string
val decide : t -> context -> decision

val never : unit -> t
(** The non-adaptive pipeline: always [Keep]. *)

val periodic_best : unit -> t
(** At every epoch, search for the best mapping under current beliefs and
    switch when its predicted throughput exceeds the current mapping's by
    more than [min_gain] = 0.1 (relative) {e and} the predicted time saved
    on the remaining items amortizes the migration stall.

    This gain test is shared by {!threshold}, {!always_best} and the
    scale-up path of the serving triggers. It may decide [Keep] without
    calling [choose_best]: when {!Aspipe_model.Predictor.upper_bound} is
    below the current rate times [(1 + min_gain)], less a [1e-9] relative
    margin for rounding, no mapping could pass the test. Such a [Keep] is
    the one the search would have led to, so every decision is unchanged;
    only the search is saved. *)

val threshold : ?drop:float -> ?cooldown:float -> unit -> t
(** The paper-style trigger: only search when the observed throughput has
    dropped below [(1 − drop)] of the adopted expectation (default
    [drop = 0.25]), then apply the same gain/amortization test as
    {!periodic_best}; after an adaptation, sleep [cooldown] seconds
    (default 30) to avoid thrashing on monitor noise. *)

val always_best : unit -> t
(** Greedy oracle-style policy: switch whenever the search finds anything
    better that amortizes (min_gain = 0.01). Used as the clairvoyant upper
    bound when paired with perfect sensors. *)

(** {2 Serving (autoscaling) triggers}

    These read {!context.serving} and are inert ([Keep]) when it is
    [None], so they can only act inside an open-arrival run. *)

val queue_length : ?high:int -> ?low:int -> unit -> t
(** Backlog hysteresis: scale {e up} (full mapping search plus the usual
    gain/amortization test at [min_gain] = 0.02) when more than [high]
    items are in flight (default 64), scale {e down} to the cheapest
    mapping still covering [arrival_rate × 1.2] when fewer than [low]
    (default 8); sleep 30 s between actions. *)

val latency_gradient : unit -> t
(** Latency-aware trigger acting {e before} the SLO is breached: scale up
    (as {!queue_length} does) when windowed p99 exceeds
    [0.8 × slo_threshold] or its slope projects it past the threshold
    within one 30 s cooldown; scale down to the cheapest mapping covering
    [arrival_rate × 1.2] when p99 sits below [0.4 × slo_threshold] and is
    not rising. *)
