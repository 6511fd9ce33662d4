(** E9 (table): one-step-ahead forecasting accuracy of every primitive
    forecaster and the NWS-style adaptive ensemble across the signal
    families a non-dedicated grid produces. The NWS claim being reproduced:
    the ensemble is never the worst and is at or near the best on every
    family. *)

type row = { signal : string; per_forecaster : (string * float) list (** MAE *) }

(* lint: unused-export-ok used by E9's table; test_exp checks E9's claim on it *)
val rows : quick:bool -> row list
(* lint: unused-export-ok used by E9's table; test_exp checks E9's claim on it *)
val ensemble_regret : row -> float
(** MAE(adaptive) − min MAE over primitives, for one signal. *)

val run_e9 : quick:bool -> unit
