(* A forecaster is a bank of members that one [observe] updates together.
   The adaptive ensemble is a bank of fourteen; every other constructor
   makes a bank of one, so all of them run the same code.

   Members sit in a fixed order by kind: last value, running mean, sliding
   means, sliding medians, EWMAs, Holt trends, AR(1); a bank holds any of
   them. Slot 0 of [pred], [sq] and [ab] is the bank's own answer (its
   member of least running MSE) and slot [1 + k] is member k, so one loop
   scores them all. Members always observe together, so they share one
   observation count and one error count, and the sliding kinds read one
   ring of the last values, as long as the largest window. Every number
   lives unboxed in a float array, so [observe] allocates nothing; each
   prediction is computed once, at the end of [observe], and cached. *)

type t = {
  name : string;
  names : string array;  (* member k's name at [k] *)
  pred : float array;  (* predictions: the bank's at 0, member k's at 1 + k *)
  sq : float array;  (* squared one-step errors summed, same slots *)
  ab : float array;  (* absolute one-step errors summed, same slots *)
  level : float array;  (* per slot: running mean, EWMA or Holt level *)
  slope : float array;  (* per slot: Holt slope *)
  gain : float array;  (* per slot: EWMA or Holt gain *)
  ar : float array;  (* AR(1): sums of x_{t-1}, x_t, x_{t-1}², x_{t-1}·x_t; last value *)
  ring : float array;  (* the last [length ring] values, oldest at [next] once full *)
  mean_windows : int array;  (* ascending, at most three *)
  sorted : float array array;  (* per median window: its values, sorted *)
  nans : int array;  (* per median window: the NaNs at the front of [sorted] *)
  (* Each kind's members fill the slots from its first one up to the next
     kind's first: a last-value member sits at slot 1, an AR(1) member at
     [slots - 1]. *)
  running_mean : int;
  means : int;
  medians : int;
  ewmas : int;
  trends : int;
  ar1 : int;
  slots : int;  (* 1 + members *)
  mutable next : int;  (* ring slot the next value goes to *)
  mutable observations : int;
  mutable errors : int;
  mutable pairs : int;  (* AR(1): fitted (x_{t-1}, x_t) pairs *)
}

let name t = t.name
let predict t = t.pred.(0)
(* layout: out of line (DESIGN "Code layout") *)
let[@inline never] mean_error t sums slot =
  if t.errors = 0 then nan else sums.(slot) /. Float.of_int t.errors
let mse t = mean_error t t.sq 0
let mae t = mean_error t t.ab 0

let members t =
  List.init (t.slots - 1) (fun k -> (t.names.(k), mean_error t t.sq (k + 1)))

let bank ?(fallback = 0.0) ?name ?(last = false) ?(running_mean = false) ?(means = [||])
    ?(medians = [||]) ?(ewmas = [||]) ?(trends = [||]) ?(ar1 = false) () =
  if Array.length means > 3 then invalid_arg "Forecast: at most three sliding means";
  let one present = if present then 1 else 0 in
  let first_running = 1 + one last in
  let first_mean = first_running + one running_mean in
  let first_median = first_mean + Array.length means in
  let first_ewma = first_median + Array.length medians in
  let first_trend = first_ewma + Array.length ewmas in
  let first_ar1 = first_trend + Array.length trends in
  let slots = first_ar1 + one ar1 in
  let names =
    Array.concat
      [
        (if last then [| "last" |] else [||]);
        (if running_mean then [| "run_mean" |] else [||]);
        Array.map (Printf.sprintf "mean_%d") means;
        Array.map (Printf.sprintf "median_%d") medians;
        Array.map (Printf.sprintf "ewma_%.2g") ewmas;
        Array.map (Printf.sprintf "trend_%.2g") trends;
        (if ar1 then [| "ar1" |] else [||]);
      ]
  in
  (* EWMA and Holt levels, and AR(1)'s last value, start at "none yet". *)
  let level = Array.make slots 0.0 and gain = Array.make slots nan in
  let set_gains first gains =
    Array.iteri
      (fun k g ->
        level.(first + k) <- nan;
        gain.(first + k) <- g)
      gains
  in
  set_gains first_ewma ewmas;
  set_gains first_trend trends;
  {
    name = Option.value name ~default:names.(0);
    names;
    pred = Array.make slots fallback;
    sq = Array.make slots 0.0;
    ab = Array.make slots 0.0;
    level;
    slope = Array.make slots 0.0;
    gain;
    ar = [| 0.0; 0.0; 0.0; 0.0; nan |];
    ring = Array.make (Array.fold_left Int.max 0 (Array.append means medians)) 0.0;
    mean_windows = means;
    sorted = Array.map (fun w -> Array.make w 0.0) medians;
    nans = Array.make (Array.length medians) 0;
    running_mean = first_running;
    means = first_mean;
    medians = first_median;
    ewmas = first_ewma;
    trends = first_trend;
    ar1 = first_ar1;
    slots;
    next = 0;
    observations = 0;
    errors = 0;
    pairs = 0;
  }

(* Median window [k] takes [x], before [x] enters the ring. Its values are
   kept in [s] as [Float.compare] sorts them: its [nans] NaNs first, then
   the rest, which plain comparisons order. A value goes in after every
   value equal to it, so each run of equal values is in arrival order, and
   the value a full window displaces, its oldest, is the first of its run:
   the NaN at 0, or the slot after the values below it. Both places are
   counted with branch-free comparisons, and one shift moves the values
   between them. A displaced value that equals [x] and is not a zero has
   [x]'s bits, so nothing moves. The values are those of a copy-and-sort
   of the window; only equal values with different bits (the zeros, NaN
   payloads) can sit in another order. The median is read with
   [Stats.quantile _ 0.5]'s arithmetic, whose [frac] is 0 or exactly 0.5. *)
let slide_median t k x =
  let s = t.sorted.(k) in
  let w = Array.length s in
  let nans = t.nans.(k) in
  let len = t.observations in
  let full = len >= w in
  let e =
    if full then begin
      let i = t.next - w in
      t.ring.(if i < 0 then i + Array.length t.ring else i)
    end
    else nan
  in
  if not (full && e = x && e <> 0.0) then begin
    let n = if full then w else len in
    let below_e = ref 0 and upto_x = ref 0 in
    for j = nans to n - 1 do
      let v = s.(j) in
      below_e := !below_e + Bool.to_int (v < e);
      upto_x := !upto_x + Bool.to_int (v <= x)
    done;
    let nan_gone = full && Float.is_nan e in
    let free = if not full then len else if nan_gone then 0 else nans + !below_e in
    let kept_nans = nans - Bool.to_int nan_gone in
    let place =
      if Float.is_nan x then kept_nans
      else kept_nans + !upto_x - Bool.to_int (full && e <= x)
    in
    if free < place then
      for j = free to place - 1 do
        s.(j) <- s.(j + 1)
      done
    else
      for j = free downto place + 1 do
        s.(j) <- s.(j - 1)
      done;
    s.(place) <- x;
    t.nans.(k) <- kept_nans + Bool.to_int (Float.is_nan x);
    let m = if full then w else len + 1 in
    let h = m / 2 in
    t.pred.(t.medians + k) <-
      (if m land 1 = 1 then s.(h) else (s.(h - 1) *. 0.5) +. (s.(h) *. 0.5))
  end

let[@inline] window_count n w = if n < w then n else w

(* The sliding means, after [x] entered the ring: one oldest-first pass
   over it, with one accumulator per window that joins when the pass
   reaches its window's oldest value. So each accumulator adds its own
   window's values oldest first, from 0., as a pass per window would; a
   running sum would change the bits. The windows are right-aligned onto
   three accumulators, [a2] taking the largest. *)
let slide_means t =
  let ring = t.ring and w = t.mean_windows in
  let r = Array.length ring and m = Array.length w in
  let n = t.observations in
  let c2 = window_count n w.(m - 1) in
  let c1 = if m > 1 then window_count n w.(m - 2) else 0 in
  let c0 = if m > 2 then window_count n w.(m - 3) else 0 in
  let a0 = ref 0.0 and a1 = ref 0.0 and a2 = ref 0.0 in
  let i = ref (if t.next < c2 then t.next - c2 + r else t.next - c2) in
  for _ = 1 to c2 - c1 do
    a2 := !a2 +. ring.(!i);
    i := if !i + 1 = r then 0 else !i + 1
  done;
  for _ = 1 to c1 - c0 do
    let v = ring.(!i) in
    a1 := !a1 +. v;
    a2 := !a2 +. v;
    i := if !i + 1 = r then 0 else !i + 1
  done;
  for _ = 1 to c0 do
    let v = ring.(!i) in
    a0 := !a0 +. v;
    a1 := !a1 +. v;
    a2 := !a2 +. v;
    i := if !i + 1 = r then 0 else !i + 1
  done;
  let last = t.medians - 1 in
  t.pred.(last) <- !a2 /. Float.of_int c2;
  if m > 1 then t.pred.(last - 1) <- !a1 /. Float.of_int c1;
  if m > 2 then t.pred.(last - 2) <- !a0 /. Float.of_int c0

(* Never inlined: an inlined copy would unbox [x] at the call site and box
   it again for the calls below. *)
let[@inline never] observe t x =
  let pred = t.pred in
  if t.observations > 0 then begin
    (* Score the predictions that were in force before this measurement. *)
    let sq = t.sq and ab = t.ab in
    for i = 0 to t.slots - 1 do
      let err = pred.(i) -. x in
      sq.(i) <- sq.(i) +. (err *. err);
      ab.(i) <- ab.(i) +. Float.abs err
    done;
    t.errors <- t.errors + 1
  end;
  for k = 0 to Array.length t.sorted - 1 do
    slide_median t k x
  done;
  let r = Array.length t.ring in
  if r > 0 then begin
    t.ring.(t.next) <- x;
    t.next <- (if t.next + 1 = r then 0 else t.next + 1)
  end;
  let n = t.observations + 1 in
  t.observations <- n;
  if t.medians > t.means then slide_means t;
  if t.running_mean > 1 then pred.(1) <- x;
  let level = t.level and gain = t.gain in
  if t.means > t.running_mean then begin
    let i = t.running_mean in
    level.(i) <- level.(i) +. ((x -. level.(i)) /. Float.of_int n);
    pred.(i) <- level.(i)
  end;
  for i = t.ewmas to t.trends - 1 do
    let g = gain.(i) in
    if Float.is_nan level.(i) then level.(i) <- x
    else level.(i) <- (g *. x) +. ((1.0 -. g) *. level.(i));
    pred.(i) <- level.(i)
  done;
  let slope = t.slope in
  for i = t.trends to t.ar1 - 1 do
    let g = gain.(i) in
    let tg = g /. 2.0 in
    if Float.is_nan level.(i) then level.(i) <- x
    else begin
      let previous = level.(i) in
      level.(i) <- (g *. x) +. ((1.0 -. g) *. (level.(i) +. slope.(i)));
      slope.(i) <- (tg *. (level.(i) -. previous)) +. ((1.0 -. tg) *. slope.(i))
    end;
    pred.(i) <- level.(i) +. slope.(i)
  done;
  if t.ar1 < t.slots then begin
    (* x_t ≈ a·x_{t−1} + c by least squares over the running sums; the last
       value until the fit is identifiable. *)
    let a = t.ar in
    let last = a.(4) in
    if not (Float.is_nan last) then begin
      t.pairs <- t.pairs + 1;
      a.(0) <- a.(0) +. last;
      a.(1) <- a.(1) +. x;
      a.(2) <- a.(2) +. (last *. last);
      a.(3) <- a.(3) +. (last *. x)
    end;
    a.(4) <- x;
    let nf = Float.of_int t.pairs in
    let denom = (nf *. a.(2)) -. (a.(0) *. a.(0)) in
    if t.pairs < 3 || Float.abs denom < 1e-12 then pred.(t.ar1) <- x
    else begin
      let k = ((nf *. a.(3)) -. (a.(0) *. a.(1))) /. denom in
      let c = (a.(1) -. (k *. a.(0))) /. nf in
      pred.(t.ar1) <- (k *. x) +. c
    end
  end;
  (* The bank answers with its member of least running MSE, NaN scoring as
     infinity, the first one on ties. The members share the error count, so
     dividing by it is monotone: only a member whose error sum is below the
     incumbent's can win, and only such a member pays the division. *)
  let best = ref 1 in
  if t.errors > 0 then begin
    let sq = t.sq in
    let count = Float.of_int t.errors in
    let best_sum = ref (if Float.is_nan sq.(1) then infinity else sq.(1)) in
    let best_mse = ref (!best_sum /. count) in
    for i = 2 to t.slots - 1 do
      let sum = sq.(i) in
      if sum < !best_sum then begin
        let mse = sum /. count in
        if mse < !best_mse then begin
          best := i;
          best_sum := sum;
          best_mse := mse
        end
      end
    done
  end;
  pred.(0) <- pred.(!best)

let last_value ?fallback () = bank ?fallback ~last:true ()
let running_mean ?fallback () = bank ?fallback ~running_mean:true ()

let window_of window =
  if window <= 0 then invalid_arg "Forecast: window must be positive";
  [| window |]

let sliding_mean ?fallback ~window () = bank ?fallback ~means:(window_of window) ()
let sliding_median ?fallback ~window () = bank ?fallback ~medians:(window_of window) ()

let ewma ?fallback ~gain () =
  if gain <= 0.0 || gain > 1.0 then invalid_arg "Forecast.ewma: gain must be in (0,1]";
  bank ?fallback ~ewmas:[| gain |] ()

let trend ?fallback ~gain () =
  if gain <= 0.0 || gain > 1.0 then invalid_arg "Forecast.trend: gain must be in (0,1]";
  bank ?fallback ~trends:[| gain |] ()

let ar1 ?fallback () = bank ?fallback ~ar1:true ()

let adaptive ?fallback () =
  bank ?fallback ~name:"adaptive" ~last:true ~running_mean:true ~means:[| 5; 10; 25 |]
    ~medians:[| 5; 10; 25 |] ~ewmas:[| 0.1; 0.25; 0.5; 0.75 |] ~trends:[| 0.3 |] ~ar1:true ()
