(** Random variate generation for the standard distributions used by the
    workload generators and the grid load models.

    All samplers take the {!Rng.t} explicitly; none touches global state. *)

val exponential : Rng.t -> rate:float -> float
(** [exponential rng ~rate] samples Exp(rate); mean [1/rate].
    Raises [Invalid_argument] if [rate <= 0]. *)

val normal : Rng.t -> mean:float -> stddev:float -> float
(** [normal rng ~mean ~stddev] samples a Gaussian (Box–Muller, polar form). *)

(* lint: unused-export-ok used by sample; test_util checks it directly *)
val lognormal : Rng.t -> mu:float -> sigma:float -> float
(** [lognormal rng ~mu ~sigma] samples exp(N(mu, sigma²)). *)

(* lint: unused-export-ok used by sample; test_util checks it directly *)
val gamma : Rng.t -> shape:float -> scale:float -> float
(** [gamma rng ~shape ~scale] samples Gamma(k, θ) by Marsaglia–Tsang,
    extended to [shape < 1] by the boosting identity. *)

val pareto : Rng.t -> shape:float -> scale:float -> float
(** [pareto rng ~shape ~scale] samples a Pareto with minimum [scale];
    heavy-tailed service times. *)

(* lint: unused-export-ok used by sample; test_util checks it directly *)
val weibull : Rng.t -> shape:float -> scale:float -> float
(** [weibull rng ~shape ~scale] samples Weibull(k, λ). *)

val bernoulli : Rng.t -> p:float -> bool
(** [bernoulli rng ~p] is [true] with probability [p]. *)

type spec =
  | Constant of float
  | Uniform of { lo : float; hi : float }
  | Exponential of { rate : float }
  | Normal of { mean : float; stddev : float }
  | Lognormal of { mu : float; sigma : float }
  | Gamma of { shape : float; scale : float }
  | Pareto of { shape : float; scale : float }
  | Weibull of { shape : float; scale : float }
      (** First-class distribution descriptions, so workload files can carry
          distributions as data. *)

val sample : Rng.t -> spec -> float
(** [sample rng spec] draws once from [spec]. *)

val mean_of_spec : spec -> float
(** [mean_of_spec spec] is the analytic mean of [spec] (infinite Pareto means
    are returned as [infinity]). *)
