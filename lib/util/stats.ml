module Welford = struct
  type t = { mutable count : int; mutable mean : float; mutable m2 : float }

  let create () = { count = 0; mean = 0.0; m2 = 0.0 }

  let add t x =
    t.count <- t.count + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. Float.of_int t.count);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean))

  let mean t = if t.count = 0 then nan else t.mean
  let variance t = if t.count < 2 then nan else t.m2 /. Float.of_int (t.count - 1)
  let stddev t = sqrt (variance t)
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

let confidence95 xs =
  let n = Array.length xs in
  let m = mean xs in
  if n < 2 then (m, 0.0)
  else (m, 1.96 *. stddev xs /. sqrt (Float.of_int n))
