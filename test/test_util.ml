(* Unit and property tests for Aspipe_util: PRNG, variates, statistics,
   forecasters, time series and rendering. *)

module Rng = Aspipe_util.Rng
module Variate = Aspipe_util.Variate
module Stats = Aspipe_util.Stats
module Forecast = Aspipe_util.Forecast
module Render = Aspipe_util.Render

let check_float = Alcotest.(check (float 1e-9))
let check_close ?(eps = 1e-6) msg a b = Alcotest.(check (float eps)) msg a b

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let string_contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
  nn = 0 || scan 0

(* ------------------------------------------------------------------ Rng *)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same seed, same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds diverge" true !differs

let test_rng_split_diverges () =
  let parent = Rng.create 11 in
  let child = Rng.split parent in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 parent = Rng.bits64 child then incr same
  done;
  Alcotest.(check bool) "split stream is distinct" true (!same < 4)

let test_rng_float_range () =
  let rng = Rng.create 5 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    if not (x >= 0.0 && x < 1.0) then Alcotest.fail "float outside [0,1)"
  done

let test_rng_float_mean () =
  let rng = Rng.create 13 in
  let acc = ref 0.0 in
  let n = 50_000 in
  for _ = 1 to n do
    acc := !acc +. Rng.float rng
  done;
  check_close ~eps:0.01 "uniform mean near 0.5" 0.5 (!acc /. Float.of_int n)

(* -------------------------------------------------------------- Variate *)

let sample_mean n draw =
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. draw ()
  done;
  !acc /. Float.of_int n

let test_variate_exponential_mean () =
  let rng = Rng.create 21 in
  let mean = sample_mean 50_000 (fun () -> Variate.exponential rng ~rate:2.0) in
  check_close ~eps:0.02 "Exp(2) mean 0.5" 0.5 mean

let test_variate_exponential_invalid () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "rate 0 rejected"
    (Invalid_argument "Variate.exponential: rate must be positive") (fun () ->
      ignore (Variate.exponential rng ~rate:0.0))

let test_variate_normal_moments () =
  let rng = Rng.create 22 in
  let n = 50_000 in
  let samples = Array.init n (fun _ -> Variate.normal rng ~mean:3.0 ~stddev:2.0) in
  check_close ~eps:0.05 "normal mean" 3.0 (Stats.mean samples);
  check_close ~eps:0.1 "normal stddev" 2.0 (Stats.stddev samples)

let test_variate_lognormal_mean () =
  let rng = Rng.create 23 in
  let mu = 0.5 and sigma = 0.4 in
  let mean = sample_mean 100_000 (fun () -> Variate.lognormal rng ~mu ~sigma) in
  let expected = exp (mu +. (sigma *. sigma /. 2.0)) in
  check_close ~eps:(0.03 *. expected) "lognormal mean" expected mean

let test_variate_gamma_mean () =
  let rng = Rng.create 24 in
  let mean = sample_mean 50_000 (fun () -> Variate.gamma rng ~shape:3.0 ~scale:0.5) in
  check_close ~eps:0.05 "Gamma(3,0.5) mean 1.5" 1.5 mean

let test_variate_gamma_small_shape () =
  let rng = Rng.create 25 in
  let mean = sample_mean 100_000 (fun () -> Variate.gamma rng ~shape:0.5 ~scale:2.0) in
  check_close ~eps:0.05 "Gamma(0.5,2) mean 1.0" 1.0 mean;
  Alcotest.check_raises "shape 0 rejected"
    (Invalid_argument "Variate.gamma: parameters must be positive") (fun () ->
      ignore (Variate.gamma rng ~shape:0.0 ~scale:1.0))

let test_variate_pareto_support () =
  let rng = Rng.create 27 in
  for _ = 1 to 10_000 do
    if Variate.pareto rng ~shape:2.5 ~scale:1.5 < 1.5 then Alcotest.fail "pareto below scale"
  done

let test_variate_weibull_positive () =
  let rng = Rng.create 28 in
  for _ = 1 to 10_000 do
    if Variate.weibull rng ~shape:1.5 ~scale:2.0 <= 0.0 then Alcotest.fail "weibull non-positive"
  done

let test_variate_bernoulli_extremes () =
  let rng = Rng.create 29 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Variate.bernoulli rng ~p:0.0);
    Alcotest.(check bool) "p=1 always" true (Variate.bernoulli rng ~p:1.0)
  done

let test_variate_spec_means () =
  let rng = Rng.create 32 in
  let specs =
    [
      Variate.Constant 2.5;
      Variate.Uniform { lo = 1.0; hi = 3.0 };
      Variate.Exponential { rate = 0.5 };
      Variate.Gamma { shape = 2.0; scale = 1.5 };
      Variate.Normal { mean = 4.0; stddev = 1.0 };
    ]
  in
  List.iter
    (fun spec ->
      let expected = Variate.mean_of_spec spec in
      let measured = sample_mean 60_000 (fun () -> Variate.sample rng spec) in
      check_close
        ~eps:(0.05 *. Float.max 1.0 expected)
        (Printf.sprintf "sampled mean %g" expected)
        expected measured)
    specs

let test_variate_pareto_infinite_mean () =
  check_float "Pareto shape<=1 has infinite mean" infinity
    (Variate.mean_of_spec (Variate.Pareto { shape = 1.0; scale = 2.0 }))

let test_variate_weibull_mean_formula () =
  (* Weibull with shape 1 is Exp(1/scale): mean = scale. *)
  check_close ~eps:1e-6 "Weibull shape=1 mean = scale" 3.0
    (Variate.mean_of_spec (Variate.Weibull { shape = 1.0; scale = 3.0 }))

(* ---------------------------------------------------------------- Stats *)

let test_welford_matches_batch =
  qtest "Welford mean/variance match batch formulas"
    QCheck2.Gen.(array_size (int_range 2 100) (float_range (-1000.0) 1000.0))
    (fun xs ->
      let acc = Stats.Welford.create () in
      Array.iter (Stats.Welford.add acc) xs;
      let close a b =
        let scale = Float.max 1.0 (Float.abs a) in
        Float.abs (a -. b) < 1e-6 *. scale
      in
      close (Stats.mean xs) (Stats.Welford.mean acc)
      && close (Stats.variance xs) (Stats.Welford.variance acc))

let test_welford_empty () =
  let acc = Stats.Welford.create () in
  Alcotest.(check bool) "empty mean is nan" true (Float.is_nan (Stats.Welford.mean acc));
  Alcotest.(check bool) "empty variance is nan" true (Float.is_nan (Stats.Welford.variance acc))

let test_quantile_known () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  check_float "median of 1..5" 3.0 (Stats.quantile xs 0.5);
  check_float "q0 is min" 1.0 (Stats.quantile xs 0.0);
  check_float "q1 is max" 5.0 (Stats.quantile xs 1.0);
  check_float "q0.25 interpolates" 2.0 (Stats.quantile xs 0.25);
  check_float "q0.125 interpolates between order stats" 1.5 (Stats.quantile xs 0.125)

let test_quantile_invalid () =
  Alcotest.check_raises "empty array" (Invalid_argument "Stats.quantile: empty array") (fun () ->
      ignore (Stats.quantile [||] 0.5));
  Alcotest.check_raises "q out of range" (Invalid_argument "Stats.quantile: q outside [0,1]")
    (fun () -> ignore (Stats.quantile [| 1.0 |] 1.5))

let test_quantile_does_not_mutate () =
  let xs = [| 3.0; 1.0; 2.0 |] in
  ignore (Stats.quantile xs 0.5);
  Alcotest.(check (array (float 0.0))) "input untouched" [| 3.0; 1.0; 2.0 |] xs

let test_confidence95 () =
  let samples = [| 2.0; 4.0; 6.0; 8.0 |] in
  let mean, half = Stats.confidence95 samples in
  check_float "mean" 5.0 mean;
  check_close ~eps:1e-6 "half width 1.96 s/sqrt n" (1.96 *. Stats.stddev samples /. 2.0) half;
  let _, half1 = Stats.confidence95 [| 42.0 |] in
  check_float "n=1 has zero width" 0.0 half1

(* ------------------------------------------------------------- Forecast *)

let feed forecaster values = List.iter (Forecast.observe forecaster) values

let test_forecast_last_value () =
  let f = Forecast.last_value ~fallback:0.7 () in
  check_float "fallback before data" 0.7 (Forecast.predict f);
  feed f [ 1.0; 2.0; 5.0 ];
  check_float "predicts last" 5.0 (Forecast.predict f)

let test_forecast_running_mean () =
  let f = Forecast.running_mean () in
  feed f [ 2.0; 4.0; 6.0 ];
  check_float "predicts mean" 4.0 (Forecast.predict f)

let test_forecast_sliding_mean () =
  let f = Forecast.sliding_mean ~window:3 () in
  feed f [ 100.0; 1.0; 2.0; 3.0 ];
  check_float "window drops the old value" 2.0 (Forecast.predict f)

let test_forecast_sliding_median_robust () =
  let f = Forecast.sliding_median ~window:5 () in
  feed f [ 1.0; 1.0; 1.0; 1.0; 100.0 ];
  check_float "median shrugs off the spike" 1.0 (Forecast.predict f)

let test_forecast_ewma_formula () =
  let f = Forecast.ewma ~gain:0.5 () in
  feed f [ 10.0 ];
  check_float "initializes at first value" 10.0 (Forecast.predict f);
  feed f [ 20.0 ];
  check_float "ewma update" 15.0 (Forecast.predict f);
  feed f [ 20.0 ];
  check_float "ewma update again" 17.5 (Forecast.predict f)

let test_forecast_ewma_invalid () =
  Alcotest.check_raises "gain 0 rejected" (Invalid_argument "Forecast.ewma: gain must be in (0,1]")
    (fun () -> ignore (Forecast.ewma ~gain:0.0 ()))

let test_forecast_error_tracking () =
  let f = Forecast.last_value () in
  Alcotest.(check bool) "mse nan before enough data" true (Float.is_nan (Forecast.mse f));
  feed f [ 1.0; 2.0; 2.0 ];
  (* errors: |1-2| then |2-2| -> mse (1+0)/2 *)
  check_float "mse" 0.5 (Forecast.mse f);
  check_float "mae" 0.5 (Forecast.mae f)

let test_forecast_adaptive_constant_signal () =
  let f = Forecast.adaptive () in
  feed f (List.init 50 (fun _ -> 0.42));
  check_close ~eps:1e-9 "constant signal learned exactly" 0.42 (Forecast.predict f);
  Alcotest.(check bool) "members exposed" true (List.length (Forecast.members f) >= 10)

let test_forecast_adaptive_tracks_step () =
  let f = Forecast.adaptive () in
  let last = Forecast.last_value () in
  let signal = List.init 40 (fun i -> if i < 20 then 0.9 else 0.2) in
  List.iter
    (fun v ->
      Forecast.observe f v;
      Forecast.observe last v)
    signal;
  Alcotest.(check bool) "ensemble no worse than 2x the best primitive here" true
    (Forecast.mae f <= (2.0 *. Forecast.mae last) +. 1e-9)

let test_forecast_window_invalid () =
  Alcotest.check_raises "window 0" (Invalid_argument "Forecast: window must be positive")
    (fun () -> ignore (Forecast.sliding_mean ~window:0 ()))


let test_forecast_trend_extrapolates () =
  let f = Forecast.trend ~gain:0.5 () in
  (* A steady ramp: the trend forecaster should predict ahead of the last
     value, the plain last-value forecaster always lags by one step. *)
  let last = Forecast.last_value () in
  List.iter
    (fun v ->
      Forecast.observe f v;
      Forecast.observe last v)
    (List.init 30 (fun i -> Float.of_int i /. 10.0));
  Alcotest.(check bool) "trend beats last value on a ramp" true
    (Forecast.mae f < Forecast.mae last)

let test_forecast_ar1_fits_autoregression () =
  (* x_t = 0.5 x_{t-1} + 1, from x_0 = 0: converges to 2. AR(1) should learn
     the recurrence almost exactly. *)
  let f = Forecast.ar1 () in
  let x = ref 0.0 in
  for _ = 1 to 60 do
    Forecast.observe f !x;
    x := (0.5 *. !x) +. 1.0
  done;
  let predicted = Forecast.predict f in
  let expected = (0.5 *. 2.0) +. 1.0 in
  check_close ~eps:0.01 "ar1 one-step prediction" expected predicted

let test_forecast_ar1_before_fit () =
  let f = Forecast.ar1 ~fallback:0.3 () in
  check_float "fallback before data" 0.3 (Forecast.predict f);
  Forecast.observe f 0.9;
  check_float "last value until identifiable" 0.9 (Forecast.predict f)

(* ---------------------------------------------------------------- Csvio *)

module Csvio = Aspipe_util.Csvio

let test_csv_escaping () =
  Alcotest.(check string) "plain untouched" "abc" (Csvio.escape_field "abc");
  Alcotest.(check string) "comma quoted" "\"a,b\"" (Csvio.escape_field "a,b");
  Alcotest.(check string) "quote doubled" "\"a\"\"b\"" (Csvio.escape_field "a\"b")

let test_csv_encode () =
  Alcotest.(check string) "rows joined" "a,b\n1,\"x,y\"\n"
    (Csvio.encode_rows [ [ "a"; "b" ]; [ "1"; "x,y" ] ])

let test_csv_table_roundtrip () =
  let table = Render.Table.create ~title:"t" ~columns:[ "c1"; "c2" ] in
  Render.Table.add_row table [ "v1"; "v2" ];
  Alcotest.(check (list (list string))) "header + rows" [ [ "c1"; "c2" ]; [ "v1"; "v2" ] ]
    (Csvio.table_rows table)

let test_csv_save_files () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "aspipe_csv_test" in
  let table = Render.Table.create ~title:"t" ~columns:[ "a" ] in
  Render.Table.add_row table [ "1" ];
  let path = Csvio.save_table ~dir ~basename:"demo" table in
  Alcotest.(check bool) "file exists" true (Sys.file_exists path);
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Alcotest.(check string) "header written" "a" line

(* --------------------------------------------------------------- Render *)

let test_table_render () =
  let table = Render.Table.create ~title:"demo" ~columns:[ "a"; "b" ] in
  Render.Table.add_row table [ "x"; "y" ];
  Render.Table.add_float_row table ("z", [ 1.5 ]);
  let s = Render.Table.to_string table in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" needle) true (string_contains s needle))
    [ "demo"; "x"; "y"; "1.5" ]

let test_table_nan_renders_dash () =
  let table = Render.Table.create ~title:"missing" ~columns:[ "label"; "v1"; "v2" ] in
  Render.Table.add_float_row table ("row", [ nan; 2.5 ]);
  (match Render.Table.rows table with
  | [ [ _; c1; c2 ] ] ->
      Alcotest.(check string) "NaN cell is a dash" "-" c1;
      Alcotest.(check string) "finite cell unaffected" "2.5" c2
  | _ -> Alcotest.fail "expected one three-cell row");
  Alcotest.(check bool) "rendered table has no literal nan" false
    (string_contains (Render.Table.to_string table) "nan")

let test_table_row_width () =
  let table = Render.Table.create ~title:"t" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "row width mismatch" (Invalid_argument "Table.add_row: row width mismatch")
    (fun () -> Render.Table.add_row table [ "only-one" ])

let test_plot () =
  let series = [ Render.Series.make "s" [| (0.0, 0.0); (1.0, 1.0); (2.0, 4.0) |] ] in
  let s = Render.plot series in
  Alcotest.(check bool) "plot non-empty" true (String.length s > 100);
  Alcotest.(check string) "empty plot" "(empty plot)\n" (Render.plot [])

(* ------------------------------------------------- cross-cutting properties *)

(* The campaign's property battery: statistics against naive oracles,
   conservation laws of the time-series resampler, forecaster fixed points
   and statistical independence of split RNG streams. *)

let nonempty_floats =
  QCheck2.Gen.(list_size (int_range 1 200) (float_range (-1e3) 1e3))

let test_prop_mean_matches_fold =
  qtest "mean matches the naive fold"
    nonempty_floats
    (fun xs ->
      let a = Array.of_list xs in
      let oracle = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      Float.abs (Stats.mean a -. oracle) <= 1e-9 *. Float.max 1.0 (Float.abs oracle))

let test_prop_variance_matches_fold =
  qtest "variance matches the two-pass fold"
    QCheck2.Gen.(list_size (int_range 2 200) (float_range (-1e3) 1e3))
    (fun xs ->
      let a = Array.of_list xs in
      let n = float_of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0.0 xs /. n in
      let oracle =
        List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs /. (n -. 1.0)
      in
      Float.abs (Stats.variance a -. oracle) <= 1e-6 *. Float.max 1.0 oracle)

let test_prop_quantile_monotone =
  qtest "quantile is monotone in q"
    QCheck2.Gen.(triple nonempty_floats (float_range 0.0 1.0) (float_range 0.0 1.0))
    (fun (xs, q1, q2) ->
      let a = Array.of_list xs in
      let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
      Stats.quantile a lo <= Stats.quantile a hi)

let test_prop_quantile_bounded =
  qtest "quantile stays within the sample range"
    QCheck2.Gen.(pair nonempty_floats (float_range 0.0 1.0))
    (fun (xs, q) ->
      let a = Array.of_list xs in
      let v = Stats.quantile a q in
      let lo = List.fold_left Float.min infinity xs
      and hi = List.fold_left Float.max neg_infinity xs in
      v >= lo && v <= hi)

let test_prop_forecast_constant_fixed_point =
  (* Every forecaster in the bank (and the NWS ensemble on top) must treat
     a constant signal as its own forecast. *)
  qtest ~count:100 "constant series => constant forecast"
    QCheck2.Gen.(pair (float_range (-100.0) 100.0) (int_range 2 50))
    (fun (c, n) ->
      List.for_all
        (fun forecaster ->
          for _ = 1 to n do
            Forecast.observe forecaster c
          done;
          Float.abs (Forecast.predict forecaster -. c) <= 1e-9 *. Float.max 1.0 (Float.abs c))
        [
          Forecast.last_value ();
          Forecast.running_mean ();
          Forecast.sliding_mean ~window:5 ();
          Forecast.sliding_median ~window:5 ();
          Forecast.ewma ~gain:0.3 ();
          Forecast.adaptive ();
        ])

(* The flat forecaster bank against the closure-based one it replaced
   (test/forecast_ref.ml): same constructor, same finite stream, and after
   every observation the same bits from [predict], [mse], [mae] and
   [members]. The stream mixes a wide range, small integers (ties in the
   median and in the ensemble's MSE race), values near 1 (the monitor's
   availability readings), NaN and both infinities, in single values and in
   runs of one repeated value, so the sliding median's evict-and-insert path
   sees every value class leave a full window. -0. stays out: a window
   holding both zeros is the documented deviation. *)
let test_prop_forecast_matches_reference =
  let module Ref = Forecast_ref in
  (* Equal bits, or NaN on both sides: which operand's payload a float add
     passes on when both are NaN is the code generator's choice, and no
     output shows a payload. *)
  let same a b =
    Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
    || (Float.is_nan a && Float.is_nan b)
  in
  let agree (f, r) =
    same (Forecast.predict f) (Ref.predict r)
    && same (Forecast.mse f) (Ref.mse r)
    && same (Forecast.mae f) (Ref.mae r)
    && String.equal (Forecast.name f) (Ref.name r)
    && List.equal
         (fun (n, e) (n', e') -> String.equal n n' && same e e')
         (Forecast.members f) (Ref.members r)
  in
  let value =
    QCheck2.Gen.(
      oneof
        [
          float_range (-1000.0) 1000.0;
          map Float.of_int (int_range (-3) 3);
          float_range 0.0 1.2;
          oneofl [ nan; infinity; neg_infinity ];
        ])
  in
  let stream =
    QCheck2.Gen.(
      map List.concat
        (list_size (int_range 0 40)
           (frequency
              [
                (3, map (fun x -> [ x ]) value);
                (1, map2 (fun x n -> List.init n (fun _ -> x)) value (int_range 2 12));
              ])))
  in
  qtest ~count:300 "flat bank = closure bank, bit for bit"
    QCheck2.Gen.(
      tup4 (int_range 0 7) (int_range 1 30) (pair (float_range 0.0 2.0) (float_range 0.01 1.0))
        stream)
    (fun (which, window, (fallback, gain), stream) ->
      let pair =
        match which with
        | 0 -> (Forecast.last_value ~fallback (), Ref.last_value ~fallback ())
        | 1 -> (Forecast.running_mean ~fallback (), Ref.running_mean ~fallback ())
        | 2 -> (Forecast.sliding_mean ~fallback ~window (), Ref.sliding_mean ~fallback ~window ())
        | 3 ->
            (Forecast.sliding_median ~fallback ~window (), Ref.sliding_median ~fallback ~window ())
        | 4 -> (Forecast.ewma ~fallback ~gain (), Ref.ewma ~fallback ~gain ())
        | 5 -> (Forecast.trend ~fallback ~gain (), Ref.trend ~fallback ~gain ())
        | 6 -> (Forecast.ar1 ~fallback (), Ref.ar1 ~fallback ())
        | _ -> (Forecast.adaptive ~fallback (), Ref.adaptive ~fallback ())
      in
      agree pair
      && List.for_all
           (fun x ->
             Forecast.observe (fst pair) x;
             Ref.observe (snd pair) x;
             agree pair)
           stream)

(* The unboxed generator against the boxed one it replaced
   (test/rng_ref.ml): from one seed, a random plan of splits grows a family
   of generator pairs, and 1,000 or more draws cycling through [bits64],
   [float] and [range] over the family must agree bit for bit. *)
let test_prop_rng_matches_reference =
  let module Ref = Rng_ref in
  let ranges = [| (-1.0, 1.0); (0.0, 1e6); (5.0, 5.0) |] in
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  let agree k (g, r) =
    match k mod 3 with
    | 0 -> Int64.equal (Rng.bits64 g) (Ref.bits64 r)
    | 1 -> same (Rng.float g) (Ref.float r)
    | _ ->
        let lo, hi = ranges.(k / 3 mod Array.length ranges) in
        same (Rng.range g lo hi) (Ref.range r lo hi)
  in
  qtest ~count:100 "unboxed rng = boxed rng, bit for bit"
    QCheck2.Gen.(pair int (list_size (int_range 4 8) (pair bool nat)))
    (fun (seed, plan) ->
      let family = ref [| (Rng.create seed, Ref.create seed) |] in
      List.for_all
        (fun (split, pick) ->
          let g, r = !family.(pick mod Array.length !family) in
          if split then family := Array.append !family [| (Rng.split g, Ref.split r) |];
          let members = Array.length !family in
          List.for_all
            (fun k -> agree k !family.((k + pick) mod members))
            (List.init 250 Fun.id))
        plan)

(* Pearson chi-square statistic of [counts] against a uniform expectation. *)
let chi_square counts total =
  let cells = Array.length counts in
  let expected = float_of_int total /. float_of_int cells in
  Array.fold_left
    (fun acc observed ->
      let d = float_of_int observed -. expected in
      acc +. (d *. d /. expected))
    0.0 counts

let test_rng_split_chi_square () =
  (* Independence smoke test: after a split, bucket (parent, child) output
     pairs into a 8×8 joint table. Dependence between the streams shows up
     as non-uniform cells. 4096 samples over 64 cells (63 df): the 99.9%
     point is ≈ 103, and the draws are deterministic per seed, so this
     never flakes — it only fails if split correlation actually appears. *)
  List.iter
    (fun seed ->
      let parent = Rng.create seed in
      let child = Rng.split parent in
      let joint = Array.make 64 0 in
      let marginal_p = Array.make 8 0 and marginal_c = Array.make 8 0 in
      let samples = 4096 in
      for _ = 1 to samples do
        let a = Rng_ref.below parent 8 and b = Rng_ref.below child 8 in
        joint.((a * 8) + b) <- joint.((a * 8) + b) + 1;
        marginal_p.(a) <- marginal_p.(a) + 1;
        marginal_c.(b) <- marginal_c.(b) + 1
      done;
      let check name stat bound =
        if stat > bound then
          Alcotest.failf "seed %d: %s chi-square %.1f exceeds %.1f" seed name stat bound
      in
      (* 7 df at 99.9%: ≈ 24.3. *)
      check "parent marginal" (chi_square marginal_p samples) 24.3;
      check "child marginal" (chi_square marginal_c samples) 24.3;
      check "joint" (chi_square joint samples) 103.0)
    [ 1; 2; 42; 1234; 99991 ]

(* ----------------------------------------------------------------- Ring *)

module Ring = Aspipe_util.Ring

let test_ring_fifo () =
  let r = Ring.create ~dummy:0 in
  Alcotest.(check bool) "fresh is empty" true (Ring.is_empty r);
  for i = 1 to 100 do
    Ring.push r i
  done;
  Alcotest.(check int) "length" 100 (Ring.length r);
  for i = 1 to 100 do
    Alcotest.(check int) "fifo order" i (Ring.pop r)
  done;
  Alcotest.(check bool) "drained" true (Ring.is_empty r);
  Alcotest.check_raises "pop empty" (Invalid_argument "Ring.pop: empty") (fun () ->
      ignore (Ring.pop r))

let test_ring_push_front () =
  let r = Ring.create ~dummy:0 in
  Ring.push r 3;
  Ring.push r 4;
  Ring.push_front r 2;
  Ring.push_front r 1;
  let got = ref [] in
  Ring.iter r (fun x -> got := x :: !got);
  Alcotest.(check (list int)) "front-to-back" [ 1; 2; 3; 4 ] (List.rev !got);
  Ring.clear r;
  Alcotest.(check int) "cleared" 0 (Ring.length r);
  Ring.push r 9;
  Alcotest.(check int) "usable after clear" 9 (Ring.pop r)

(* Model check: a ring driven by a random push/push_front/pop script
   behaves exactly like a list-backed deque, across growth and
   wrap-around. *)
let test_prop_ring_matches_list_model =
  let open QCheck2.Gen in
  let op = int_range 0 3 in
  qtest "Ring matches a list-model deque" (list_size (int_range 0 400) op) (fun ops ->
      let r = Ring.create ~dummy:(-1) in
      let model = ref [] in
      let counter = ref 0 in
      List.iter
        (fun op ->
          incr counter;
          match op with
          | 0 | 3 ->
              Ring.push r !counter;
              model := !model @ [ !counter ]
          | 1 ->
              Ring.push_front r !counter;
              model := !counter :: !model
          | _ -> (
              match !model with
              | [] -> assert (Ring.is_empty r)
              | x :: rest ->
                  model := rest;
                  assert (Ring.pop r = x)))
        ops;
      let got = ref [] in
      Ring.iter r (fun x -> got := x :: !got);
      List.rev !got = !model && Ring.length r = List.length !model)

(* ----------------------------------------------------------------- Spsc *)

module Spsc = Aspipe_util.Spsc

let test_spsc_capacity_rounding () =
  List.iter
    (fun (req, want) ->
      Alcotest.(check int)
        (Printf.sprintf "capacity %d rounds to %d" req want)
        want
        (Spsc.capacity (Spsc.create ~capacity:req)))
    [ (1, 1); (2, 2); (3, 4); (5, 8); (64, 64); (100, 128) ];
  Alcotest.check_raises "capacity 0" (Invalid_argument "Spsc.create: capacity must be positive")
    (fun () -> ignore (Spsc.create ~capacity:0))

(* One item through the shipped chunk path: blocks while full, raises
   [Spsc.Closed] once the ring is closed. *)
let spsc_push q x = Spsc.push_chunk q [| x |] ~pos:0 ~len:1

let test_spsc_fifo_single_domain () =
  let q = Spsc.create ~capacity:4 in
  Alcotest.(check (option int)) "try_pop empty" None (Spsc.try_pop q);
  for i = 1 to 4 do
    spsc_push q i
  done;
  for i = 1 to 4 do
    Alcotest.(check (option int)) "fifo order" (Some i) (Spsc.try_pop q)
  done;
  Alcotest.(check (option int)) "drained" None (Spsc.try_pop q);
  (* Wrap-around: the monotone indices must address slots correctly long
     past the physical end of the buffer. *)
  for i = 1 to 100 do
    spsc_push q i;
    Alcotest.(check (option int)) "wraps" (Some i) (Spsc.pop q)
  done

let test_spsc_close_semantics () =
  let q = Spsc.create ~capacity:8 in
  spsc_push q 1;
  spsc_push q 2;
  Spsc.close q;
  Spsc.close q;
  (* idempotent *)
  Alcotest.check_raises "push after close" Spsc.Closed (fun () -> spsc_push q 3);
  Alcotest.(check (option int)) "queued items drain" (Some 1) (Spsc.pop q);
  Alcotest.(check (option int)) "in order" (Some 2) (Spsc.pop q);
  Alcotest.(check (option int)) "then exhausted" None (Spsc.pop q);
  Alcotest.(check (option int)) "stays exhausted" None (Spsc.pop q)

let test_spsc_chunk_roundtrip () =
  let q = Spsc.create ~capacity:8 in
  let src = Array.init 6 (fun i -> i * 10) in
  Spsc.push_chunk q src ~pos:0 ~len:6;
  let dst = Array.make 8 (-1) in
  let n = Spsc.pop_chunk q dst ~pos:1 ~len:4 in
  Alcotest.(check int) "partial chunk out" 4 n;
  for k = 0 to 3 do
    Alcotest.(check int) "values at pos offset" (k * 10) dst.(1 + k)
  done;
  Alcotest.(check int) "window start untouched" (-1) dst.(0);
  Alcotest.(check int) "window end untouched" (-1) dst.(5);
  Alcotest.(check int) "rest of chunk" 2 (Spsc.pop_chunk q dst ~pos:0 ~len:8);
  Spsc.close q;
  Alcotest.(check int) "pop_chunk closed+drained" 0 (Spsc.pop_chunk q dst ~pos:0 ~len:8);
  Alcotest.(check int) "pop_chunk len 0" 0 (Spsc.pop_chunk q dst ~pos:0 ~len:0);
  Alcotest.check_raises "push_chunk after close" Spsc.Closed (fun () ->
      Spsc.push_chunk q src ~pos:0 ~len:1);
  Alcotest.check_raises "push_chunk bounds"
    (Invalid_argument "Spsc.push_chunk: window out of bounds") (fun () ->
      Spsc.push_chunk q src ~pos:4 ~len:4);
  Alcotest.check_raises "pop_chunk bounds"
    (Invalid_argument "Spsc.pop_chunk: window out of bounds") (fun () ->
      ignore (Spsc.pop_chunk q dst ~pos:7 ~len:2))

(* A ring closed before any push has never allocated its slots: every
   consumer operation must report exhaustion without touching them. *)
let test_spsc_closed_before_push () =
  let q : string Spsc.t = Spsc.create ~capacity:4 in
  Spsc.close q;
  Alcotest.(check (option string)) "try_pop" None (Spsc.try_pop q);
  Alcotest.(check (option string)) "pop" None (Spsc.pop q);
  Alcotest.(check int) "pop_chunk" 0 (Spsc.pop_chunk q (Array.make 4 "") ~pos:0 ~len:4);
  Alcotest.check_raises "push" Spsc.Closed (fun () -> spsc_push q "x");
  Alcotest.check_raises "push_chunk" Spsc.Closed (fun () ->
      Spsc.push_chunk q [| "x" |] ~pos:0 ~len:1)

(* Windows of every representation: a float ring's slots and windows are
   flat float arrays, a record ring's hold pointers. Both must round-trip
   through push_chunk, pop_chunk and try_pop, across wrap-around. *)
let spsc_roundtrip ~eq ~show items =
  let q = Spsc.create ~capacity:4 in
  let n = Array.length items in
  let got = ref [] in
  let dst = Array.make 3 items.(0) in
  let i = ref 0 in
  while !i < n do
    let len = min 3 (n - !i) in
    Spsc.push_chunk q items ~pos:!i ~len;
    i := !i + len;
    (* Alternate the two consumer paths. *)
    if !i mod 2 = 0 then
      let m = Spsc.pop_chunk q dst ~pos:0 ~len:3 in
      got := List.rev_append (Array.to_list (Array.sub dst 0 m)) !got
    else
      let rec drain () =
        match Spsc.try_pop q with
        | Some x ->
            got := x :: !got;
            drain ()
        | None -> ()
      in
      drain ()
  done;
  Spsc.close q;
  let rec rest () =
    let m = Spsc.pop_chunk q dst ~pos:0 ~len:3 in
    if m > 0 then begin
      got := List.rev_append (Array.to_list (Array.sub dst 0 m)) !got;
      rest ()
    end
  in
  rest ();
  let got = Array.of_list (List.rev !got) in
  Alcotest.(check int) "every item out" n (Array.length got);
  Array.iteri
    (fun k x ->
      if not (eq x items.(k)) then
        Alcotest.failf "item %d: got %s, pushed %s" k (show x) (show items.(k)))
    got

let test_spsc_float_ring () =
  spsc_roundtrip ~eq:(fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
    ~show:string_of_float
    [| 0.5; -0.0; Float.nan; infinity; 1e-300; 3.25; -7.0; Float.max_float; 2.0; 0.1; 42.0 |]

type spsc_record = { id : int; label : string }

let test_spsc_record_ring () =
  spsc_roundtrip ~eq:( = )
    ~show:(fun r -> Printf.sprintf "{%d; %s}" r.id r.label)
    (Array.init 13 (fun id -> { id; label = String.make (id + 1) 'r' }))

(* Retention: the slots are filled with the first item pushed and every
   vacated slot is reset to it, so after a full drain the ring holds that
   one item and nothing else. The items are built and pushed in a separate
   function so no stack slot of the test keeps one alive. *)
let spsc_fill_and_drain q weak n =
  for i = 0 to n - 1 do
    let item = Bytes.make 16 (Char.chr (65 + (i mod 26))) in
    Weak.set weak i (Some item);
    spsc_push q item
  done;
  ignore (Sys.opaque_identity (Spsc.pop q));
  let dst = Array.make 3 Bytes.empty in
  ignore (Sys.opaque_identity (Spsc.pop_chunk q dst ~pos:0 ~len:3));
  while Spsc.try_pop q <> None do
    ()
  done
[@@inline never]

let test_spsc_retains_only_first_item () =
  let n = 8 in
  let q = Spsc.create ~capacity:n in
  let weak = Weak.create n in
  spsc_fill_and_drain q weak n;
  Gc.full_major ();
  Alcotest.(check bool) "first item held by the live ring" true (Weak.check weak 0);
  for i = 1 to n - 1 do
    if Weak.check weak i then Alcotest.failf "item %d retained after its pop" (i + 1)
  done;
  Alcotest.(check bool) "ring still live and empty" true
    (Spsc.try_pop (Sys.opaque_identity q) = None)

(* Model check: a ring driven by a random script of non-blocking operations
   (one-item push with room / try_pop / space-clipped chunk push / chunk
   pop / close) behaves exactly like a FIFO list with a closed flag, across
   every capacity and past wrap-around, and drains to the model at the
   end. Blocking variants are exercised by the
   two-domain tests below; here every call is chosen so it cannot park. *)
let test_prop_spsc_matches_list_model =
  let open QCheck2.Gen in
  let op = pair (int_range 0 4) (int_range 1 5) in
  let script = pair (int_range 1 6) (list_size (int_range 0 300) op) in
  qtest "Spsc matches a list model" script (fun (req_cap, ops) ->
      let q = Spsc.create ~capacity:req_cap in
      let cap = Spsc.capacity q in
      let model = ref [] in
      (* head of the list = oldest item *)
      let closed = ref false in
      let counter = ref 0 in
      let ok = ref true in
      let check b = if not b then ok := false in
      List.iter
        (fun (op, k) ->
          if !ok then
            match op with
            | 0 ->
                incr counter;
                let x = !counter in
                if !closed then
                  check
                    (match spsc_push q x with
                    | exception Spsc.Closed -> true
                    | () -> false)
                else if List.length !model < cap then begin
                  spsc_push q x;
                  model := !model @ [ x ]
                end
            | 1 -> (
                match !model with
                | [] -> check (Spsc.try_pop q = None)
                | x :: rest ->
                    model := rest;
                    check (Spsc.try_pop q = Some x))
            | 2 ->
                let free = cap - List.length !model in
                let n = min k free in
                if (not !closed) && n > 0 then begin
                  let xs = List.init n (fun i -> !counter + 1 + i) in
                  counter := !counter + n;
                  Spsc.push_chunk q (Array.of_list xs) ~pos:0 ~len:n;
                  model := !model @ xs
                end
            | 3 ->
                let avail = List.length !model in
                if avail > 0 then begin
                  let dst = Array.make k 0 in
                  let n = Spsc.pop_chunk q dst ~pos:0 ~len:k in
                  (* The count may be partial — a stale tail snapshot
                     under-reports availability — but never zero while items
                     remain, and never more than requested or present. *)
                  check (n >= 1 && n <= min k avail);
                  let rec consume i remaining =
                    if i >= n then remaining
                    else
                      match remaining with
                      | x :: rest ->
                          check (dst.(i) = x);
                          consume (i + 1) rest
                      | [] ->
                          check false;
                          []
                  in
                  model := consume 0 !model
                end
                else if !closed then
                  check (Spsc.pop_chunk q (Array.make k 0) ~pos:0 ~len:k = 0)
                else check (Spsc.try_pop q = None)
            | _ ->
                Spsc.close q;
                closed := true)
        ops;
      Spsc.close q;
      let rec drain acc = match Spsc.pop q with Some x -> drain (x :: acc) | None -> List.rev acc in
      check (drain [] = !model);
      !ok)

(* -------------------------------------------- Spsc under two real domains *)

(* Producer and consumer on separate domains, across the capacity × batch
   grid the backend actually uses: every item must arrive exactly once, in
   order, and the producer's close-after-last-push must leave nothing
   stranded. A lost item, reorder or lost wake-up hangs or fails the case.
   Items are non-negative and the consumer pre-fills its window with a
   negative sentinel it writes back after every check, so a slot that
   [pop_chunk] counted but did not fill shows up as a hole. *)
let spsc_stress ~capacity ~batch ~items () =
  let q = Spsc.create ~capacity in
  let producer =
    Domain.spawn (fun () ->
        if batch = 1 then
          for i = 0 to items - 1 do
            spsc_push q i
          done
        else begin
          let buf = Array.make batch 0 in
          let i = ref 0 in
          while !i < items do
            let n = min batch (items - !i) in
            for k = 0 to n - 1 do
              buf.(k) <- !i + k
            done;
            Spsc.push_chunk q buf ~pos:0 ~len:n;
            i := !i + n
          done
        end;
        Spsc.close q)
  in
  let hole = -1 in
  let next = ref 0 in
  let buf = Array.make batch hole in
  let running = ref true in
  while !running do
    let n = Spsc.pop_chunk q buf ~pos:0 ~len:batch in
    if n = 0 then running := false
    else begin
      for k = 0 to n - 1 do
        let x = buf.(k) in
        if x = hole then Alcotest.fail "hole in popped chunk";
        if x <> !next + k then Alcotest.failf "out of order: got %d, expected %d" x (!next + k);
        buf.(k) <- hole
      done;
      next := !next + n
    end
  done;
  Domain.join producer;
  Alcotest.(check int) "every item arrived exactly once, in order" items !next

let spsc_stress_cases =
  List.concat_map
    (fun capacity ->
      List.map
        (fun batch ->
          Alcotest.test_case
            (Printf.sprintf "stress capacity=%d batch=%d" capacity batch)
            `Quick
            (spsc_stress ~capacity ~batch ~items:20_000))
        [ 1; 8; 64 ])
    [ 1; 2; 64 ]

(* The close protocol under real blocking: a party parked on a full (producer) or empty (consumer) ring must be
   woken by a [close] from another domain with the typed outcome — never
   left parked. A lost wake-up hangs the suite here instead of passing. *)

let test_spsc_close_wakes_blocked_producer () =
  let q = Spsc.create ~capacity:1 in
  spsc_push q 0;
  let producer =
    Domain.spawn (fun () ->
        match spsc_push q 1 with () -> `Pushed | exception Spsc.Closed -> `Raised_closed)
  in
  Unix.sleepf 0.05;
  Spsc.close q;
  Alcotest.(check bool) "blocked producer raises Closed" true (Domain.join producer = `Raised_closed)

let test_spsc_close_wakes_blocked_consumer () =
  let q : int Spsc.t = Spsc.create ~capacity:4 in
  let consumer = Domain.spawn (fun () -> Spsc.pop q) in
  Unix.sleepf 0.05;
  Spsc.close q;
  Alcotest.(check (option int)) "blocked consumer gets None" None (Domain.join consumer)

let test_spsc_close_wakes_blocked_chunk_consumer () =
  let q : int Spsc.t = Spsc.create ~capacity:4 in
  let consumer =
    Domain.spawn (fun () -> Spsc.pop_chunk q (Array.make 4 0) ~pos:0 ~len:4)
  in
  Unix.sleepf 0.05;
  Spsc.close q;
  Alcotest.(check int) "blocked chunk consumer gets 0" 0 (Domain.join consumer)

let test_spsc_producer_close_drains () =
  (* close-after-last-push from the producer domain: the consumer must see
     every item even if it was parked when the close landed. *)
  let q = Spsc.create ~capacity:2 in
  let producer =
    Domain.spawn (fun () ->
        Unix.sleepf 0.05;
        for i = 1 to 100 do
          spsc_push q i
        done;
        Spsc.close q)
  in
  let got = ref 0 in
  let running = ref true in
  while !running do
    match Spsc.pop q with
    | None -> running := false
    | Some x ->
        if x <> !got + 1 then Alcotest.failf "drain order: got %d after %d" x !got;
        got := x
  done;
  Domain.join producer;
  Alcotest.(check int) "all items drained past the close" 100 !got

let () =
  Alcotest.run "aspipe_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split divergence" `Quick test_rng_split_diverges;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "float mean" `Slow test_rng_float_mean;
        ] );
      ( "variate",
        [
          Alcotest.test_case "exponential mean" `Slow test_variate_exponential_mean;
          Alcotest.test_case "exponential invalid" `Quick test_variate_exponential_invalid;
          Alcotest.test_case "normal moments" `Slow test_variate_normal_moments;
          Alcotest.test_case "lognormal mean" `Slow test_variate_lognormal_mean;
          Alcotest.test_case "gamma mean" `Slow test_variate_gamma_mean;
          Alcotest.test_case "gamma small shape" `Slow test_variate_gamma_small_shape;
          Alcotest.test_case "pareto support" `Quick test_variate_pareto_support;
          Alcotest.test_case "weibull positive" `Quick test_variate_weibull_positive;
          Alcotest.test_case "bernoulli extremes" `Quick test_variate_bernoulli_extremes;
          Alcotest.test_case "spec means" `Slow test_variate_spec_means;
          Alcotest.test_case "pareto infinite mean" `Quick test_variate_pareto_infinite_mean;
          Alcotest.test_case "weibull mean formula" `Quick test_variate_weibull_mean_formula;
        ] );
      ( "stats",
        [
          test_welford_matches_batch;
          Alcotest.test_case "welford empty" `Quick test_welford_empty;
          Alcotest.test_case "quantile known" `Quick test_quantile_known;
          Alcotest.test_case "quantile invalid" `Quick test_quantile_invalid;
          Alcotest.test_case "quantile pure" `Quick test_quantile_does_not_mutate;
          Alcotest.test_case "confidence95" `Quick test_confidence95;
        ] );
      ( "forecast",
        [
          Alcotest.test_case "last value" `Quick test_forecast_last_value;
          Alcotest.test_case "running mean" `Quick test_forecast_running_mean;
          Alcotest.test_case "sliding mean" `Quick test_forecast_sliding_mean;
          Alcotest.test_case "sliding median" `Quick test_forecast_sliding_median_robust;
          Alcotest.test_case "ewma formula" `Quick test_forecast_ewma_formula;
          Alcotest.test_case "ewma invalid" `Quick test_forecast_ewma_invalid;
          Alcotest.test_case "error tracking" `Quick test_forecast_error_tracking;
          Alcotest.test_case "adaptive constant" `Quick test_forecast_adaptive_constant_signal;
          Alcotest.test_case "adaptive step" `Quick test_forecast_adaptive_tracks_step;
          Alcotest.test_case "window invalid" `Quick test_forecast_window_invalid;
          Alcotest.test_case "trend extrapolates" `Quick test_forecast_trend_extrapolates;
          Alcotest.test_case "ar1 fit" `Quick test_forecast_ar1_fits_autoregression;
          Alcotest.test_case "ar1 fallback" `Quick test_forecast_ar1_before_fit;
        ] );
      ( "csv",
        [
          Alcotest.test_case "escaping" `Quick test_csv_escaping;
          Alcotest.test_case "encode" `Quick test_csv_encode;
          Alcotest.test_case "table rows" `Quick test_csv_table_roundtrip;
          Alcotest.test_case "save files" `Quick test_csv_save_files;
        ] );
      ( "ring",
        [
          Alcotest.test_case "fifo" `Quick test_ring_fifo;
          Alcotest.test_case "push front" `Quick test_ring_push_front;
          test_prop_ring_matches_list_model;
        ] );
      ( "spsc",
        [
          Alcotest.test_case "capacity rounding" `Quick test_spsc_capacity_rounding;
          Alcotest.test_case "fifo single domain" `Quick test_spsc_fifo_single_domain;
          Alcotest.test_case "close semantics" `Quick test_spsc_close_semantics;
          Alcotest.test_case "chunk roundtrip" `Quick test_spsc_chunk_roundtrip;
          Alcotest.test_case "closed before any push" `Quick test_spsc_closed_before_push;
          Alcotest.test_case "float ring" `Quick test_spsc_float_ring;
          Alcotest.test_case "record ring" `Quick test_spsc_record_ring;
          Alcotest.test_case "retains only the first item" `Quick test_spsc_retains_only_first_item;
          test_prop_spsc_matches_list_model;
        ] );
      ( "spsc-domains",
        spsc_stress_cases
        @ [
            Alcotest.test_case "close wakes blocked producer" `Quick
              test_spsc_close_wakes_blocked_producer;
            Alcotest.test_case "close wakes blocked consumer" `Quick
              test_spsc_close_wakes_blocked_consumer;
            Alcotest.test_case "close wakes blocked chunk consumer" `Quick
              test_spsc_close_wakes_blocked_chunk_consumer;
            Alcotest.test_case "producer close drains" `Quick test_spsc_producer_close_drains;
          ] );
      ( "properties",
        [
          test_prop_mean_matches_fold;
          test_prop_variance_matches_fold;
          test_prop_quantile_monotone;
          test_prop_quantile_bounded;
          test_prop_forecast_constant_fixed_point;
          test_prop_forecast_matches_reference;
          Alcotest.test_case "rng split chi-square" `Quick test_rng_split_chi_square;
          test_prop_rng_matches_reference;
        ] );
      ( "render",
        [
          Alcotest.test_case "table" `Quick test_table_render;
          Alcotest.test_case "nan renders dash" `Quick test_table_nan_renders_dash;
          Alcotest.test_case "row width" `Quick test_table_row_width;
          Alcotest.test_case "plot" `Quick test_plot;
        ] );
    ]
