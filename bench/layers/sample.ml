(* Order statistics of a run's repetitions. Quartiles follow Python's
   [statistics.quantiles(xs, n=4)] (the "exclusive" method), so the
   spreads printed here are the ones an external comparison of the same
   samples computes. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* (q1, q3). One sample has no spread: both quartiles are that sample. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let m = n + 1 in
    let at i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. Float.of_int (4 - delta)) +. (a.(j) *. Float.of_int delta)) /. 4.0
    in
    (at 1, at 3)

(* Interquartile distance as a share of the median. *)
let spread xs =
  let q1, q3 = quartiles xs in
  (q3 -. q1) /. Float.abs (median xs)

(* Nearest-rank percentile, [p] in [0, 100]. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. Float.of_int n)) - 1)))
