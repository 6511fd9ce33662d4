module Welford = struct
  type t = {
    mutable count : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
  }

  let create () = { count = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity }

  let add t x =
    t.count <- t.count + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. Float.of_int t.count);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let merge a b =
    if a.count = 0 then { b with count = b.count }
    else if b.count = 0 then { a with count = a.count }
    else begin
      let n = a.count + b.count in
      let na = Float.of_int a.count and nb = Float.of_int b.count in
      let delta = b.mean -. a.mean in
      let mean = a.mean +. (delta *. nb /. Float.of_int n) in
      let m2 = a.m2 +. b.m2 +. (delta *. delta *. na *. nb /. Float.of_int n) in
      { count = n; mean; m2; min = Float.min a.min b.min; max = Float.max a.max b.max }
    end

  let count t = t.count
  let mean t = if t.count = 0 then nan else t.mean
  let variance t = if t.count < 2 then nan else t.m2 /. Float.of_int (t.count - 1)
  let stddev t = sqrt (variance t)
  let min t = t.min
  let max t = t.max
end

let mean xs =
  let n = Array.length xs in
  if n = 0 then nan else Array.fold_left ( +. ) 0.0 xs /. Float.of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then nan
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    acc /. Float.of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

(* layout: out of line (DESIGN "Code layout") *)
let[@inline never] quantile xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.quantile: empty array";
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.quantile: q outside [0,1]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let position = q *. Float.of_int (n - 1) in
  let below = int_of_float (Float.floor position) in
  let above = int_of_float (Float.ceil position) in
  if below = above then sorted.(below)
  else begin
    let frac = position -. Float.of_int below in
    (sorted.(below) *. (1.0 -. frac)) +. (sorted.(above) *. frac)
  end

let median xs = quantile xs 0.5

let confidence95 xs =
  let n = Array.length xs in
  let m = mean xs in
  if n < 2 then (m, 0.0)
  else (m, 1.96 *. stddev xs /. sqrt (Float.of_int n))

(* layout: out of line (DESIGN "Code layout") *)
let[@inline never] check_same_length name a b =
  if Array.length a <> Array.length b then invalid_arg (name ^ ": length mismatch");
  if Array.length a = 0 then invalid_arg (name ^ ": empty arrays")

let mae a b =
  check_same_length "Stats.mae" a b;
  let acc = ref 0.0 in
  Array.iteri (fun i x -> acc := !acc +. Float.abs (x -. b.(i))) a;
  !acc /. Float.of_int (Array.length a)

let rmse a b =
  check_same_length "Stats.rmse" a b;
  let acc = ref 0.0 in
  Array.iteri
    (fun i x ->
      let d = x -. b.(i) in
      acc := !acc +. (d *. d))
    a;
  sqrt (!acc /. Float.of_int (Array.length a))

module Histogram = struct
  type t = { lo : float; hi : float; counts : int array; mutable total : int }

  let create ~lo ~hi ~bins =
    if bins <= 0 then invalid_arg "Histogram.create: bins must be positive";
    if not (hi > lo) then invalid_arg "Histogram.create: hi must exceed lo";
    { lo; hi; counts = Array.make bins 0; total = 0 }

  let add t x =
    let bins = Array.length t.counts in
    let raw = int_of_float (Float.of_int bins *. (x -. t.lo) /. (t.hi -. t.lo)) in
    let i = Stdlib.min (bins - 1) (Stdlib.max 0 raw) in
    t.counts.(i) <- t.counts.(i) + 1;
    t.total <- t.total + 1

  let count t = t.total
  let counts t = Array.copy t.counts

  let bin_mid t i =
    let bins = Array.length t.counts in
    let width = (t.hi -. t.lo) /. Float.of_int bins in
    t.lo +. (width *. (Float.of_int i +. 0.5))
end
