let exponential rng ~rate =
  if rate <= 0.0 then invalid_arg "Variate.exponential: rate must be positive";
  let u = 1.0 -. Rng.float rng in
  -.log u /. rate

let uniform rng ~lo ~hi = Rng.range rng lo hi

(* layout: out of line (DESIGN "Code layout") *)
let[@inline never] normal rng ~mean ~stddev =
  (* Polar Box–Muller; discards the second variate to stay stateless. A
     loop, not a local recursive function, so a draw allocates no closure. *)
  let u = ref 0.0 and s = ref 1.0 in
  while !s >= 1.0 || !s = 0.0 do
    u := Rng.range rng (-1.0) 1.0;
    let v = Rng.range rng (-1.0) 1.0 in
    s := (!u *. !u) +. (v *. v)
  done;
  mean +. (stddev *. (!u *. sqrt (-2.0 *. log !s /. !s)))

let lognormal rng ~mu ~sigma = exp (normal rng ~mean:mu ~stddev:sigma)

let rec gamma rng ~shape ~scale =
  if shape <= 0.0 || scale <= 0.0 then invalid_arg "Variate.gamma: parameters must be positive";
  if shape < 1.0 then
    (* Boost: Gamma(k) = Gamma(k+1) * U^(1/k). *)
    let u = 1.0 -. Rng.float rng in
    gamma rng ~shape:(shape +. 1.0) ~scale *. (u ** (1.0 /. shape))
  else begin
    let d = shape -. (1.0 /. 3.0) in
    let c = 1.0 /. sqrt (9.0 *. d) in
    let rec draw () =
      let x = normal rng ~mean:0.0 ~stddev:1.0 in
      let v = 1.0 +. (c *. x) in
      if v <= 0.0 then draw ()
      else begin
        let v3 = v *. v *. v in
        let u = 1.0 -. Rng.float rng in
        let x2 = x *. x in
        if u < 1.0 -. (0.0331 *. x2 *. x2) then d *. v3
        else if log u < (0.5 *. x2) +. (d *. (1.0 -. v3 +. log v3)) then d *. v3
        else draw ()
      end
    in
    scale *. draw ()
  end

let pareto rng ~shape ~scale =
  if shape <= 0.0 || scale <= 0.0 then invalid_arg "Variate.pareto: parameters must be positive";
  let u = 1.0 -. Rng.float rng in
  scale /. (u ** (1.0 /. shape))

let weibull rng ~shape ~scale =
  if shape <= 0.0 || scale <= 0.0 then invalid_arg "Variate.weibull: parameters must be positive";
  let u = 1.0 -. Rng.float rng in
  scale *. ((-.log u) ** (1.0 /. shape))

(* layout: out of line (DESIGN "Code layout") *)
let[@inline never] bernoulli rng ~p = Rng.float rng < p

type spec =
  | Constant of float
  | Uniform of { lo : float; hi : float }
  | Exponential of { rate : float }
  | Normal of { mean : float; stddev : float }
  | Lognormal of { mu : float; sigma : float }
  | Gamma of { shape : float; scale : float }
  | Pareto of { shape : float; scale : float }
  | Weibull of { shape : float; scale : float }

let sample rng = function
  | Constant c -> c
  | Uniform { lo; hi } -> uniform rng ~lo ~hi
  | Exponential { rate } -> exponential rng ~rate
  | Normal { mean; stddev } -> normal rng ~mean ~stddev
  | Lognormal { mu; sigma } -> lognormal rng ~mu ~sigma
  | Gamma { shape; scale } -> gamma rng ~shape ~scale
  | Pareto { shape; scale } -> pareto rng ~shape ~scale
  | Weibull { shape; scale } -> weibull rng ~shape ~scale

(* Lanczos approximation of the log-gamma function, for Weibull means. *)
let log_gamma_fn x =
  let coefficients =
    [| 76.18009172947146; -86.50532032941677; 24.01409824083091;
       -1.231739572450155; 0.1208650973866179e-2; -0.5395239384953e-5 |]
  in
  let y = ref x in
  let tmp = x +. 5.5 in
  let tmp = tmp -. ((x +. 0.5) *. log tmp) in
  let ser = ref 1.000000000190015 in
  Array.iter
    (fun c ->
      y := !y +. 1.0;
      ser := !ser +. (c /. !y))
    coefficients;
  -.tmp +. log (2.5066282746310005 *. !ser /. x)

let mean_of_spec = function
  | Constant c -> c
  | Uniform { lo; hi } -> (lo +. hi) /. 2.0
  | Exponential { rate } -> 1.0 /. rate
  | Normal { mean; _ } -> mean
  | Lognormal { mu; sigma } -> exp (mu +. (sigma *. sigma /. 2.0))
  | Gamma { shape; scale } -> shape *. scale
  | Pareto { shape; scale } -> if shape <= 1.0 then infinity else shape *. scale /. (shape -. 1.0)
  | Weibull { shape; scale } -> scale *. exp (log_gamma_fn (1.0 +. (1.0 /. shape)))
