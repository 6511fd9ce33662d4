(** Synthetic pipeline families for the simulated experiments: the stage
    shapes the evaluation sweeps over, each with one unit of work per stage
    on average so different shapes stay comparable. *)

val balanced : ?n:int -> unit -> Aspipe_skel.Stage.t array
(** [n] equal stages of work 1.0 each (default n = 4). *)

val hot_stage : ?n:int -> ?hot:int -> factor:float -> unit -> Aspipe_skel.Stage.t array
(** One stage costs [factor ×] the others (default hot = middle). *)

val front_heavy : ?n:int -> unit -> Aspipe_skel.Stage.t array
(** Geometrically decreasing stage costs, first/last = 4. *)

val noisy : ?n:int -> cv:float -> unit -> Aspipe_skel.Stage.t array
(** Per-item work is Gamma-distributed with coefficient of variation [cv]
    around the balanced mean. *)
