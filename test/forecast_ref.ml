(* Reference copy of the closure-based forecaster bank that lib/util/forecast
   replaced: one closure and boxed refs per forecaster, windows copied and
   sorted on every predict. Kept only so the differential tests can check the
   flat implementation against it float for float. *)

module Stats = Aspipe_util.Stats

type core = {
  name : string;
  observe_core : float -> unit;
  predict_core : unit -> float;
}

type t = {
  core : core;
  fallback : float;
  mutable observations : int;
  mutable error_sq_sum : float;
  mutable error_abs_sum : float;
  mutable errors_counted : int;
  bank : t list; (* non-empty only for the adaptive ensemble *)
}

let name t = t.core.name

let predict t = if t.observations = 0 then t.fallback else t.core.predict_core ()

let rec observe t x =
  if t.observations > 0 then begin
    (* Score the prediction that was in force before this measurement. *)
    let err = predict t -. x in
    t.error_sq_sum <- t.error_sq_sum +. (err *. err);
    t.error_abs_sum <- t.error_abs_sum +. Float.abs err;
    t.errors_counted <- t.errors_counted + 1
  end;
  List.iter (fun member -> observe member x) t.bank;
  t.core.observe_core x;
  t.observations <- t.observations + 1

let mse t =
  if t.errors_counted = 0 then nan else t.error_sq_sum /. Float.of_int t.errors_counted

let mae t =
  if t.errors_counted = 0 then nan else t.error_abs_sum /. Float.of_int t.errors_counted

let make ?(fallback = 0.0) core = {
  core;
  fallback;
  observations = 0;
  error_sq_sum = 0.0;
  error_abs_sum = 0.0;
  errors_counted = 0;
  bank = [];
}

let last_value ?fallback () =
  let last = ref 0.0 in
  make ?fallback
    { name = "last"; observe_core = (fun x -> last := x); predict_core = (fun () -> !last) }

let running_mean ?fallback () =
  let acc = Stats.Welford.create () in
  make ?fallback
    {
      name = "run_mean";
      observe_core = (fun x -> Stats.Welford.add acc x);
      predict_core = (fun () -> Stats.Welford.mean acc);
    }

let window_buffer window =
  if window <= 0 then invalid_arg "Forecast: window must be positive";
  let buf = Array.make window 0.0 in
  let filled = ref 0 in
  let next = ref 0 in
  let push x =
    buf.(!next) <- x;
    next := (!next + 1) mod window;
    if !filled < window then incr filled
  in
  let contents () = Array.init !filled (fun i -> buf.((!next - !filled + i + (2 * window)) mod window)) in
  (push, contents)

let sliding_mean ?fallback ~window () =
  let push, contents = window_buffer window in
  make ?fallback
    {
      name = Printf.sprintf "mean_%d" window;
      observe_core = push;
      predict_core = (fun () -> Stats.mean (contents ()));
    }

let sliding_median ?fallback ~window () =
  let push, contents = window_buffer window in
  make ?fallback
    {
      name = Printf.sprintf "median_%d" window;
      observe_core = push;
      predict_core = (fun () -> Stats.quantile (contents ()) 0.5);
    }

let ewma ?fallback ~gain () =
  if gain <= 0.0 || gain > 1.0 then invalid_arg "Forecast.ewma: gain must be in (0,1]";
  let state = ref nan in
  make ?fallback
    {
      name = Printf.sprintf "ewma_%.2g" gain;
      observe_core =
        (fun x -> if Float.is_nan !state then state := x else state := (gain *. x) +. ((1.0 -. gain) *. !state));
      predict_core = (fun () -> !state);
    }

let trend ?fallback ~gain () =
  if gain <= 0.0 || gain > 1.0 then invalid_arg "Forecast.trend: gain must be in (0,1]";
  let trend_gain = gain /. 2.0 in
  let level = ref nan in
  let slope = ref 0.0 in
  make ?fallback
    {
      name = Printf.sprintf "trend_%.2g" gain;
      observe_core =
        (fun x ->
          if Float.is_nan !level then level := x
          else begin
            let previous = !level in
            level := (gain *. x) +. ((1.0 -. gain) *. (!level +. !slope));
            slope := (trend_gain *. (!level -. previous)) +. ((1.0 -. trend_gain) *. !slope)
          end);
      predict_core = (fun () -> !level +. !slope);
    }

let ar1 ?fallback () =
  (* Running sums for the least-squares fit of x_t = a·x_{t−1} + c. *)
  let n = ref 0 in
  let sum_prev = ref 0.0 and sum_cur = ref 0.0 in
  let sum_prev_sq = ref 0.0 and sum_cross = ref 0.0 in
  let last = ref nan in
  let coefficients () =
    let nf = Float.of_int !n in
    let denom = (nf *. !sum_prev_sq) -. (!sum_prev *. !sum_prev) in
    if !n < 3 || Float.abs denom < 1e-12 then None
    else begin
      let a = ((nf *. !sum_cross) -. (!sum_prev *. !sum_cur)) /. denom in
      let c = (!sum_cur -. (a *. !sum_prev)) /. nf in
      Some (a, c)
    end
  in
  make ?fallback
    {
      name = "ar1";
      observe_core =
        (fun x ->
          if not (Float.is_nan !last) then begin
            incr n;
            sum_prev := !sum_prev +. !last;
            sum_cur := !sum_cur +. x;
            sum_prev_sq := !sum_prev_sq +. (!last *. !last);
            sum_cross := !sum_cross +. (!last *. x)
          end;
          last := x);
      predict_core =
        (fun () ->
          match coefficients () with
          | Some (a, c) -> (a *. !last) +. c
          | None -> !last);
    }

let adaptive ?(fallback = 0.0) () =
  let bank =
    [
      last_value ~fallback ();
      running_mean ~fallback ();
      sliding_mean ~fallback ~window:5 ();
      sliding_mean ~fallback ~window:10 ();
      sliding_mean ~fallback ~window:25 ();
      sliding_median ~fallback ~window:5 ();
      sliding_median ~fallback ~window:10 ();
      sliding_median ~fallback ~window:25 ();
      ewma ~fallback ~gain:0.1 ();
      ewma ~fallback ~gain:0.25 ();
      ewma ~fallback ~gain:0.5 ();
      ewma ~fallback ~gain:0.75 ();
      trend ~fallback ~gain:0.3 ();
      ar1 ~fallback ();
    ]
  in
  let best () =
    let score member = if Float.is_nan (mse member) then infinity else mse member in
    List.fold_left
      (fun acc member -> if score member < score acc then member else acc)
      (List.hd bank) (List.tl bank)
  in
  let core =
    {
      name = "adaptive";
      observe_core = (fun _ -> ()) (* members are fed by [observe] itself *);
      predict_core = (fun () -> predict (best ()));
    }
  in
  { (make ~fallback core) with bank }

let members t =
  match t.bank with
  | [] -> [ (name t, mse t) ]
  | bank -> List.map (fun member -> (name member, mse member)) bank
