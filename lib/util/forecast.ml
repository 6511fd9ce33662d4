(* Every forecaster is one record: its numbers live unboxed in the float
   array [f] (slot layout below), its counters in int fields and an
   ensemble's members in an array, so [observe] allocates nothing. The
   prediction is computed once, at the end of [observe], and cached in
   [f.(prediction)] until the next one — it is needed anyway to score the
   next measurement. *)

type kind =
  | Last
  | Running_mean
  | Sliding_mean
  | Sliding_median
  | Ewma
  | Trend
  | Ar1
  | Ensemble of t array

and t = {
  name : string;
  kind : kind;
  f : float array;
  window : float array;  (* sliding kinds: the last [length window] values, a ring *)
  sorted : float array;  (* sliding median: the window's values, sorted *)
  mutable next : int;  (* ring slot the next value goes to *)
  mutable filled : int;  (* ring slots in use *)
  mutable count : int;  (* running mean: values seen; AR(1): fitted pairs *)
  mutable observations : int;
  mutable errors_counted : int;
}

(* Slots of [f]. [state] .. [state + 4] hold the kind's own numbers:
   last value; running mean; EWMA level; Holt level, slope; AR(1) sums of
   x_{t-1}, x_t, x_{t-1}², x_{t-1}·x_t and the last value. *)
let prediction = 0
let error_sq = 1
let error_abs = 2
let gain = 3
let trend_gain = 4
let state = 5
let slots = state + 5

let name t = t.name
let predict t = t.f.(prediction)

let mse t =
  if t.errors_counted = 0 then nan else t.f.(error_sq) /. Float.of_int t.errors_counted

let mae t =
  if t.errors_counted = 0 then nan else t.f.(error_abs) /. Float.of_int t.errors_counted

let make ?(fallback = 0.0) ?(window = 0) ?gain:(g = nan) ~name kind =
  let f = Array.make slots 0.0 in
  f.(prediction) <- fallback;
  f.(gain) <- g;
  f.(trend_gain) <- g /. 2.0;
  (* EWMA and Holt levels, and AR(1)'s last value, start at "none yet". *)
  (match kind with
  | Ewma | Trend -> f.(state) <- nan
  | Ar1 -> f.(state + 4) <- nan
  | Last | Running_mean | Sliding_mean | Sliding_median | Ensemble _ -> ());
  {
    name;
    kind;
    f;
    window = Array.make window 0.0;
    sorted = (match kind with Sliding_median -> Array.make window 0.0 | _ -> [||]);
    next = 0;
    filled = 0;
    count = 0;
    observations = 0;
    errors_counted = 0;
  }

(* Push [x] into the window ring, overwriting the oldest value when full. *)
let push t x =
  let w = Array.length t.window in
  t.window.(t.next) <- x;
  t.next <- (if t.next + 1 = w then 0 else t.next + 1);
  if t.filled < w then t.filled <- t.filled + 1

(* The helpers below store their result in [f.(prediction)] rather than
   return it: a float returned from a call that is not inlined is boxed. The
   window is read in place, oldest first: the oldest value sits at [next]
   once the ring is full, at 0 before. *)

(* Mean of the window, summed oldest → newest and then divided: the float
   operations of [Stats.mean] on the oldest-first contents. *)
let predict_window_mean t =
  let w = Array.length t.window in
  let oldest = if t.filled < w then 0 else t.next in
  let acc = ref 0.0 in
  for k = 0 to t.filled - 1 do
    let i = oldest + k in
    acc := !acc +. t.window.(if i >= w then i - w else i)
  done;
  t.f.(prediction) <- !acc /. Float.of_int t.filled

(* A sliding median keeps the window's values in [t.sorted] under
   [Float.compare]'s order (NaN first) across observations: a full ring's
   evicted value is removed, the new one inserted, and the median read off.
   The sorted values equal the copy-and-sort of the window value for value;
   only the relative order of values that compare equal with different bits
   (-0. and 0., NaN payloads) can differ. *)

(* Before [push]: on a full ring, remove the oldest value, which [push] is
   about to overwrite, from the sorted values, then insert [x] after every
   value that compares equal to it. The evicted value is matched by its
   bits: [=] never matches a NaN and cannot tell -0. from 0., either of
   which would leave in [sorted] a value the window no longer holds. *)
let slide_sorted t x =
  let s = t.sorted in
  let n =
    if t.filled < Array.length t.window then t.filled
    else begin
      let bits = Int64.bits_of_float t.window.(t.next) in
      let k = ref 0 in
      while Int64.bits_of_float s.(!k) <> bits do
        incr k
      done;
      for i = !k to t.filled - 2 do
        s.(i) <- s.(i + 1)
      done;
      t.filled - 1
    end
  in
  let j = ref (n - 1) in
  (* [Float.compare s.(!j) x > 0], spelled out. *)
  while !j >= 0 && (s.(!j) > x || (Float.is_nan x && not (Float.is_nan s.(!j)))) do
    s.(!j + 1) <- s.(!j);
    decr j
  done;
  s.(!j + 1) <- x

(* Median of the sorted window with [Stats.quantile _ 0.5]'s arithmetic. *)
let predict_window_median t =
  let s = t.sorted in
  let n = t.filled in
  let position = 0.5 *. Float.of_int (n - 1) in
  let below = int_of_float (Float.floor position) in
  let above = int_of_float (Float.ceil position) in
  if below = above then t.f.(prediction) <- s.(below)
  else begin
    let frac = position -. Float.of_int below in
    t.f.(prediction) <- (s.(below) *. (1.0 -. frac)) +. (s.(above) *. frac)
  end

(* x_t ≈ a·x_{t−1} + c by least squares over the running sums; the last
   value until the fit is identifiable. *)
let predict_ar1 t =
  let f = t.f in
  let sum_prev = f.(state) and sum_cur = f.(state + 1) in
  let sum_prev_sq = f.(state + 2) and sum_cross = f.(state + 3) in
  let last = f.(state + 4) in
  let nf = Float.of_int t.count in
  let denom = (nf *. sum_prev_sq) -. (sum_prev *. sum_prev) in
  if t.count < 3 || Float.abs denom < 1e-12 then f.(prediction) <- last
  else begin
    let a = ((nf *. sum_cross) -. (sum_prev *. sum_cur)) /. denom in
    let c = (sum_cur -. (a *. sum_prev)) /. nf in
    f.(prediction) <- (a *. last) +. c
  end

(* Adopt the prediction of the bank member of least running MSE, NaN
   scoring as infinity; the first such member on ties. *)
let predict_best t bank =
  let best = ref 0 in
  let best_score = ref infinity in
  for i = 0 to Array.length bank - 1 do
    let m = bank.(i) in
    let mse = m.f.(error_sq) /. Float.of_int m.errors_counted in
    let score = if m.errors_counted = 0 || Float.is_nan mse then infinity else mse in
    if i = 0 || score < !best_score then begin
      best := i;
      best_score := score
    end
  done;
  t.f.(prediction) <- bank.(!best).f.(prediction)

(* Never inlined: an inlined copy would unbox [x] at the call site and then
   box it again for every ensemble member it feeds. *)
let[@inline never] rec observe t x =
  let f = t.f in
  if t.observations > 0 then begin
    (* Score the prediction that was in force before this measurement. *)
    let err = f.(prediction) -. x in
    f.(error_sq) <- f.(error_sq) +. (err *. err);
    f.(error_abs) <- f.(error_abs) +. Float.abs err;
    t.errors_counted <- t.errors_counted + 1
  end;
  (match t.kind with
  | Last -> f.(prediction) <- x
  | Running_mean ->
      t.count <- t.count + 1;
      let delta = x -. f.(state) in
      f.(state) <- f.(state) +. (delta /. Float.of_int t.count);
      f.(prediction) <- f.(state)
  | Sliding_mean ->
      push t x;
      predict_window_mean t
  | Sliding_median ->
      slide_sorted t x;
      push t x;
      predict_window_median t
  | Ewma ->
      let g = f.(gain) in
      if Float.is_nan f.(state) then f.(state) <- x
      else f.(state) <- (g *. x) +. ((1.0 -. g) *. f.(state));
      f.(prediction) <- f.(state)
  | Trend ->
      let g = f.(gain) and tg = f.(trend_gain) in
      if Float.is_nan f.(state) then f.(state) <- x
      else begin
        let previous = f.(state) in
        f.(state) <- (g *. x) +. ((1.0 -. g) *. (f.(state) +. f.(state + 1)));
        f.(state + 1) <- (tg *. (f.(state) -. previous)) +. ((1.0 -. tg) *. f.(state + 1))
      end;
      f.(prediction) <- f.(state) +. f.(state + 1)
  | Ar1 ->
      let last = f.(state + 4) in
      if not (Float.is_nan last) then begin
        t.count <- t.count + 1;
        f.(state) <- f.(state) +. last;
        f.(state + 1) <- f.(state + 1) +. x;
        f.(state + 2) <- f.(state + 2) +. (last *. last);
        f.(state + 3) <- f.(state + 3) +. (last *. x)
      end;
      f.(state + 4) <- x;
      predict_ar1 t
  | Ensemble bank ->
      for i = 0 to Array.length bank - 1 do
        observe bank.(i) x
      done;
      predict_best t bank);
  t.observations <- t.observations + 1

let last_value ?fallback () = make ?fallback ~name:"last" Last
let running_mean ?fallback () = make ?fallback ~name:"run_mean" Running_mean

let sliding ?fallback ~window ~statistic kind =
  if window <= 0 then invalid_arg "Forecast: window must be positive";
  make ?fallback ~window ~name:(Printf.sprintf "%s_%d" statistic window) kind

let sliding_mean ?fallback ~window () = sliding ?fallback ~window ~statistic:"mean" Sliding_mean

let sliding_median ?fallback ~window () =
  sliding ?fallback ~window ~statistic:"median" Sliding_median

let ewma ?fallback ~gain () =
  if gain <= 0.0 || gain > 1.0 then invalid_arg "Forecast.ewma: gain must be in (0,1]";
  make ?fallback ~gain ~name:(Printf.sprintf "ewma_%.2g" gain) Ewma

let trend ?fallback ~gain () =
  if gain <= 0.0 || gain > 1.0 then invalid_arg "Forecast.trend: gain must be in (0,1]";
  make ?fallback ~gain ~name:(Printf.sprintf "trend_%.2g" gain) Trend

let ar1 ?fallback () = make ?fallback ~name:"ar1" Ar1

let adaptive ?(fallback = 0.0) () =
  let bank =
    [|
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
    |]
  in
  make ~fallback ~name:"adaptive" (Ensemble bank)

let members t =
  let bank =
    match t.kind with
    | Ensemble bank -> bank
    | Last | Running_mean | Sliding_mean | Sliding_median | Ewma | Trend | Ar1 -> [| t |]
  in
  Array.to_list (Array.map (fun m -> (name m, mse m)) bank)
