(** Stage descriptors for the simulated pipeline skeleton.

    A stage is characterized by the work it spends per item (a distribution,
    so heterogeneous and noisy stages are expressible), the bytes it emits
    downstream per item, and the bytes of internal state a migration must
    carry. The eSkel [Pipeline1for1] discipline applies: one output per
    input, inputs processed in order, one at a time. *)

type t = {
  name : string;
  work : Aspipe_util.Variate.spec;  (** work units per item *)
  output_bytes : float;  (** per-item payload sent to the next stage *)
  state_bytes : float;  (** state transferred when the stage migrates *)
}

val make :
  ?name:string ->
  ?output_bytes:float ->
  ?state_bytes:float ->
  work:Aspipe_util.Variate.spec ->
  unit ->
  t
(** Defaults: [output_bytes = 1e5], [state_bytes = 1e6], generated name.
    Raises [Invalid_argument] naming the field if a size is negative, NaN
    or infinite. *)

val mean_work : t -> float

val keyed_work : t -> seed:int -> item:int -> stage:int -> float
(** [keyed_work t ~seed ~item ~stage] is the work [item] costs at stage
    index [stage] of a simulator whose work seed is [seed]: a draw of
    [t.work] (clamped at 0) from a generator keyed on the three, so the
    same key always gives the same bits. Both simulators recompute it at
    every dispatch instead of memoising it; a [Constant] spec builds no
    generator. *)

val balanced : n:int -> work:float -> unit -> t array
(** [n] stages of constant [work] each, with {!make}'s default sizes. *)

val imbalanced : n:int -> work:float -> hot_stage:int -> factor:float -> unit -> t array
(** Like {!balanced} but stage [hot_stage] costs [factor × work]. *)
