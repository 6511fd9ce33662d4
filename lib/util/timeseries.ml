type t = {
  initial : float;
  mutable times : float array;
  mutable values : float array;
  mutable length : int;
}

let create ?(initial = 0.0) () = { initial; times = Array.make 16 0.0; values = Array.make 16 0.0; length = 0 }

let ensure_capacity t =
  if t.length = Array.length t.times then begin
    let grow a = Array.append a (Array.make (Array.length a) 0.0) in
    t.times <- grow t.times;
    t.values <- grow t.values
  end

let add t time value =
  if t.length > 0 && time < t.times.(t.length - 1) then
    invalid_arg "Timeseries.add: time must be non-decreasing";
  if t.length > 0 && time = t.times.(t.length - 1) then
    (* Same-instant update supersedes the previous value. *)
    t.values.(t.length - 1) <- value
  else begin
    ensure_capacity t;
    t.times.(t.length) <- time;
    t.values.(t.length) <- value;
    t.length <- t.length + 1
  end

let of_points ?initial pts =
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) pts in
  let rec check = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if a = b then invalid_arg "Timeseries.of_points: duplicate timestamp";
        check rest
    | _ -> ()
  in
  check sorted;
  let t = create ?initial () in
  List.iter (fun (time, v) -> add t time v) sorted;
  t

(* Largest index with times.(i) <= x, or -1. *)
let index_at t x =
  let rec search lo hi =
    if lo > hi then hi
    else begin
      let mid = (lo + hi) / 2 in
      if t.times.(mid) <= x then search (mid + 1) hi else search lo (mid - 1)
    end
  in
  search 0 (t.length - 1)

let value_at t x =
  let i = index_at t x in
  if i < 0 then t.initial else t.values.(i)

let points t = List.init t.length (fun i -> (t.times.(i), t.values.(i)))

let integrate t ~lo ~hi =
  if hi < lo then invalid_arg "Timeseries.integrate: hi < lo";
  if hi = lo then 0.0
  else begin
    let acc = ref 0.0 in
    let cursor = ref lo in
    let value = ref (value_at t lo) in
    let i = ref (index_at t lo + 1) in
    while !i < t.length && t.times.(!i) < hi do
      acc := !acc +. (!value *. (t.times.(!i) -. !cursor));
      cursor := t.times.(!i);
      value := t.values.(!i);
      incr i
    done;
    !acc +. (!value *. (hi -. !cursor))
  end

let sample t ~lo ~hi ~step =
  if step <= 0.0 then invalid_arg "Timeseries.sample: step must be positive";
  let n = int_of_float (Float.floor ((hi -. lo) /. step)) + 1 in
  Array.init n (fun i ->
      let x = lo +. (step *. Float.of_int i) in
      (x, value_at t x))
