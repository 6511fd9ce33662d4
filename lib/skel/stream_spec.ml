module Rng = Aspipe_util.Rng
module Variate = Aspipe_util.Variate

type arrival = Immediate | Spaced of float | Poisson of float

type t = { items : int; arrival : arrival; item_bytes : float }

let make ?(arrival = Immediate) ?(item_bytes = 1e5) ~items () =
  if items <= 0 then invalid_arg "Stream_spec.make: items must be positive";
  (* Written so that a NaN fails each test: every comparison with NaN is
     false. *)
  if not (Float.is_finite item_bytes && item_bytes >= 0.0) then
    invalid_arg "Stream_spec.make: item_bytes must be finite and non-negative";
  (match arrival with
  | Spaced dt when not (Float.is_finite dt && dt >= 0.0) ->
      invalid_arg "Stream_spec.make: Spaced interval must be finite and non-negative"
  | Poisson rate when not (rate > 0.0) ->
      invalid_arg "Stream_spec.make: Poisson rate must be positive"
  | Immediate | Spaced _ | Poisson _ -> ());
  { items; arrival; item_bytes }

let arrival_times t rng =
  match t.arrival with
  | Immediate -> Array.make t.items 0.0
  | Spaced dt -> Array.init t.items (fun i -> dt *. Float.of_int i)
  | Poisson rate ->
      let clock = ref 0.0 in
      Array.init t.items (fun _ ->
          clock := !clock +. Variate.exponential rng ~rate;
          !clock)
