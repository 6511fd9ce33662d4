(** Synthetic pipeline families for the simulated experiments: the stage
    shapes the evaluation sweeps over, all parameterized by total work so
    different shapes stay comparable. *)

val balanced : ?n:int -> ?work:float -> unit -> Aspipe_skel.Stage.t array
(** [n] equal stages (defaults n = 4, work = 1.0 per stage). *)

val hot_stage :
  ?n:int -> ?work:float -> ?hot:int -> factor:float -> unit -> Aspipe_skel.Stage.t array
(** One stage costs [factor ×] the others (default hot = middle). *)

val front_heavy : ?n:int -> ?work:float -> ?ratio:float -> unit -> Aspipe_skel.Stage.t array
(** Geometrically decreasing stage costs, first/last = [ratio] (default 4). *)

(* lint: unused-export-ok test-only (ROADMAP "Test-only exports") *)
val back_heavy : ?n:int -> ?work:float -> ?ratio:float -> unit -> Aspipe_skel.Stage.t array

val noisy :
  ?n:int -> ?work:float -> cv:float -> unit -> Aspipe_skel.Stage.t array
(** Per-item work is Gamma-distributed with coefficient of variation [cv]
    around the balanced mean. *)

val comm_heavy : (* lint: unused-export-ok test-only (ROADMAP "Test-only exports") *)
  ?n:int -> ?work:float -> bytes:float -> unit -> Aspipe_skel.Stage.t array
(** Balanced compute but [bytes] per inter-stage payload, so the network is
    the bottleneck. *)

val random : (* lint: unused-export-ok test-only (ROADMAP "Test-only exports") *)
  Aspipe_util.Rng.t -> n:int -> mean_work:float -> unit -> Aspipe_skel.Stage.t array
(** Stage means drawn log-uniformly in [mean_work/4, mean_work×4] with
    lognormal per-item noise — the "unknown application" case. *)
