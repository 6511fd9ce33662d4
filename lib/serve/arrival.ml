module Rng = Aspipe_util.Rng
module Variate = Aspipe_util.Variate
module Engine = Aspipe_des.Engine

type t =
  | Poisson of { rate : float }
  | Nhpp of { rate : float -> float; rate_max : float }
  | Mmpp of { rates : float array; mean_holding : float array }
  | Replay of { times : float array }

(* Every parameter must be finite: a NaN slips past the range checks below
   (every comparison with it is false) and an infinity passes them, and
   either one hangs or crashes the generator instead of being refused. *)
let finite constructor name v =
  if not (Float.is_finite v) then
    invalid_arg (Printf.sprintf "Arrival.%s: %s must be finite (got %g)" constructor name v)

let poisson ~rate =
  finite "poisson" "rate" rate;
  if rate <= 0.0 then invalid_arg "Arrival.poisson: rate must be positive";
  Poisson { rate }

let mmpp ~rates ~mean_holding =
  let n = Array.length rates in
  if n = 0 || Array.length mean_holding <> n then
    invalid_arg "Arrival.mmpp: rates and mean_holding must have equal nonzero length";
  Array.iter (finite "mmpp" "every rate") rates;
  Array.iter (finite "mmpp" "every holding time") mean_holding;
  Array.iter
    (fun r -> if r < 0.0 then invalid_arg "Arrival.mmpp: negative rate")
    rates;
  Array.iter
    (fun h -> if h <= 0.0 then invalid_arg "Arrival.mmpp: holding times must be positive")
    mean_holding;
  if not (Array.exists (fun r -> r > 0.0) rates) then
    invalid_arg "Arrival.mmpp: at least one state must have a positive rate";
  Mmpp { rates; mean_holding }

let replay times =
  let n = Array.length times in
  for i = 0 to n - 1 do
    finite "replay" "every arrival time" times.(i);
    if times.(i) < 0.0 then invalid_arg "Arrival.replay: negative arrival time";
    if i > 0 && times.(i) < times.(i - 1) then
      invalid_arg "Arrival.replay: times must be non-decreasing"
  done;
  Replay { times = Array.copy times }

let diurnal ~base ~amplitude ~period =
  finite "diurnal" "base" base;
  finite "diurnal" "amplitude" amplitude;
  finite "diurnal" "period" period;
  if base <= 0.0 then invalid_arg "Arrival.diurnal: base rate must be positive";
  if amplitude < 0.0 || amplitude > base then
    invalid_arg "Arrival.diurnal: amplitude must lie in [0, base]";
  if period <= 0.0 then invalid_arg "Arrival.diurnal: period must be positive";
  let two_pi = 8.0 *. atan 1.0 in
  Nhpp
    {
      rate = (fun t -> base +. (amplitude *. sin (two_pi *. t /. period)));
      rate_max = base +. amplitude;
    }

let flash_crowd ~base ~peak ~at ~ramp ~decay =
  finite "flash_crowd" "base" base;
  finite "flash_crowd" "peak" peak;
  finite "flash_crowd" "at" at;
  finite "flash_crowd" "ramp" ramp;
  finite "flash_crowd" "decay" decay;
  if base <= 0.0 then invalid_arg "Arrival.flash_crowd: base rate must be positive";
  if peak < base then invalid_arg "Arrival.flash_crowd: peak must be >= base";
  if at < 0.0 then invalid_arg "Arrival.flash_crowd: surge start must be >= 0";
  if ramp <= 0.0 || decay <= 0.0 then
    invalid_arg "Arrival.flash_crowd: ramp and decay must be positive";
  let surge = peak -. base in
  Nhpp
    {
      rate =
        (fun t ->
          if t < at then base
          else if t < at +. ramp then base +. (surge *. ((t -. at) /. ramp))
          else base +. (surge *. exp (-.(t -. at -. ramp) /. decay)));
      rate_max = peak;
    }

(* A stateful source of successive arrival instants: [None] once the next
   instant would land past [until]. Each call draws from [rng] at most a
   bounded-expectation number of times, so the engine only pays for
   arrivals it actually sees — nothing is materialized. *)
let source ~until ~rng t =
  match t with
  | Poisson { rate } ->
      let clock = ref 0.0 in
      fun () ->
        clock := !clock +. Variate.exponential rng ~rate;
        if !clock > until then None else Some !clock
  | Nhpp { rate; rate_max } ->
      (* Lewis–Shedler thinning: homogeneous candidates at [rate_max],
         accepted with probability rate(t)/rate_max. Rejected candidates
         still advance the clock, so a long all-zero-rate stretch costs
         O(rate_max * stretch) draws and then terminates at [until]. *)
      let clock = ref 0.0 in
      let rec next () =
        clock := !clock +. Variate.exponential rng ~rate:rate_max;
        if !clock > until then None
        else if Rng.float rng < rate !clock /. rate_max then Some !clock
        else next ()
      in
      next
  | Mmpp { rates; mean_holding } ->
      (* Cyclic Markov-modulated Poisson: states visited in order, each held
         for an Exp(1/mean_holding) sojourn, arrivals at the state's rate.
         Crossing a state boundary discards the in-progress inter-arrival
         draw and redraws from the boundary — exact by memorylessness. *)
      let state = ref 0 in
      let clock = ref 0.0 in
      let holding s = Variate.exponential rng ~rate:(1.0 /. mean_holding.(s)) in
      let state_until = ref (holding 0) in
      let rec next () =
        if !clock > until then None
        else begin
          let rate = rates.(!state) in
          let candidate =
            if rate <= 0.0 then infinity else !clock +. Variate.exponential rng ~rate
          in
          if candidate <= !state_until then begin
            clock := candidate;
            if candidate > until then None else Some candidate
          end
          else begin
            clock := !state_until;
            state := (!state + 1) mod Array.length rates;
            state_until := !state_until +. holding !state;
            next ()
          end
        end
      in
      next
  | Replay { times } ->
      let i = ref 0 in
      fun () ->
        if !i >= Array.length times then None
        else begin
          let v = times.(!i) in
          incr i;
          if v > until then None else Some v
        end

let times ~until ~rng t =
  let next = source ~until ~rng t in
  let rec collect acc = match next () with None -> acc | Some v -> collect (v :: acc) in
  Array.of_list (List.rev (collect []))

let schedule ~until ~rng ~engine t ~f =
  let next = source ~until ~rng t in
  (* Self-rescheduling: exactly one pending arrival event at a time. The
     next instant is drawn inside the previous arrival's callback, so the
     process is lazy in engine time and still fully deterministic — the
     dedicated [rng] is consumed in arrival order only. *)
  let rec arm () =
    match next () with
    | None -> ()
    | Some time ->
        ignore
          (Engine.schedule_at engine ~time (fun () ->
               f ();
               arm ()))
  in
  arm ()

let spec_grammar =
  "KIND:ARGS — poisson:RATE | diurnal:BASE,AMPLITUDE,PERIOD | \
   flash:BASE,PEAK,AT,RAMP,DECAY | mmpp:RATE/HOLD,RATE/HOLD,... | replay:T1,T2,..."

let parse_spec spec =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  let number token =
    match float_of_string_opt (String.trim token) with
    | Some v -> v
    | None -> fail "arrival spec %S: %S is not a number" spec token
  in
  let numbers args = List.map number (String.split_on_char ',' args) in
  match String.index_opt spec ':' with
  | None -> fail "arrival spec %S: expected %s" spec spec_grammar
  | Some i -> (
      let kind = String.lowercase_ascii (String.trim (String.sub spec 0 i)) in
      let args = String.sub spec (i + 1) (String.length spec - i - 1) in
      let arity () =
        fail "arrival spec %S: wrong argument count for %s (%s)" spec kind spec_grammar
      in
      match kind with
      | "poisson" -> (
          match numbers args with [ rate ] -> poisson ~rate | _ -> arity ())
      | "diurnal" -> (
          match numbers args with
          | [ base; amplitude; period ] -> diurnal ~base ~amplitude ~period
          | _ -> arity ())
      | "flash" -> (
          match numbers args with
          | [ base; peak; at; ramp; decay ] -> flash_crowd ~base ~peak ~at ~ramp ~decay
          | _ -> arity ())
      | "replay" -> replay (Array.of_list (numbers args))
      | "mmpp" ->
          let states =
            List.map
              (fun clause ->
                match String.split_on_char '/' clause with
                | [ rate; holding ] -> (number rate, number holding)
                | _ -> fail "arrival spec %S: mmpp state %S is not RATE/HOLD" spec clause)
              (String.split_on_char ',' args)
          in
          mmpp
            ~rates:(Array.of_list (List.map fst states))
            ~mean_holding:(Array.of_list (List.map snd states))
      | _ -> fail "arrival spec %S: unknown kind %S (%s)" spec kind spec_grammar)

let pp ppf t =
  match t with
  | Poisson { rate } -> Format.fprintf ppf "poisson(%g/s)" rate
  | Nhpp { rate_max; _ } -> Format.fprintf ppf "nhpp(rate_max %g/s)" rate_max
  | Mmpp { rates; _ } ->
      Format.fprintf ppf "mmpp(%d states, rates %s)" (Array.length rates)
        (String.concat ","
           (List.map (Printf.sprintf "%g") (Array.to_list rates)))
  | Replay { times } -> Format.fprintf ppf "replay(%d arrivals)" (Array.length times)
