module Rng = Aspipe_util.Rng
module Variate = Aspipe_util.Variate

type t = {
  name : string;
  work : Variate.spec;
  output_bytes : float;
  state_bytes : float;
}

(* Atomic: stages may be created concurrently from campaign worker domains. *)
let counter = Atomic.make 0

let make ?name ?(output_bytes = 1e5) ?(state_bytes = 1e6) ~work () =
  (* Written so that a NaN fails the test: every comparison with NaN is
     false. *)
  let check field v =
    if not (Float.is_finite v && v >= 0.0) then
      invalid_arg (Printf.sprintf "Stage.make: %s must be finite and non-negative" field)
  in
  check "output_bytes" output_bytes;
  check "state_bytes" state_bytes;
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "stage%d" (Atomic.fetch_and_add counter 1 + 1)
  in
  { name; work; output_bytes; state_bytes }

let mean_work t = Variate.mean_of_spec t.work

(* Each draw gets its own generator keyed on (seed, item, stage), not on
   dispatch order: every item costs the same under any mapping, buffer
   capacity, replica set or adaptation schedule, so comparisons across
   strategies are paired on one workload realization, migrating a stage
   never re-rolls the work its queued items will cost, and a re-dispatched
   item costs what its lost first attempt did. Nothing memoises the draw,
   so it must stay a pure function of its key. Kept out of line: it
   carries a generator's whole seeding, and both simulators' dispatch
   paths call it. *)
let[@inline never] keyed_work t ~seed ~item ~stage =
  match t.work with
  | Variate.Constant c -> Float.max 0.0 c
  | spec ->
      let keyed = Rng.create (seed lxor (item * 0x9E3779) lxor (stage * 0x85EB51)) in
      Float.max 0.0 (Variate.sample keyed spec)

let balanced ~n ~work () =
  if n <= 0 then invalid_arg "Stage.balanced: n must be positive";
  Array.init n (fun i -> make ~name:(Printf.sprintf "s%d" i) ~work:(Variate.Constant work) ())

let imbalanced ~n ~work ~hot_stage ~factor () =
  if hot_stage < 0 || hot_stage >= n then invalid_arg "Stage.imbalanced: hot stage out of range";
  let stages = balanced ~n ~work () in
  stages.(hot_stage) <-
    make
      ~name:(Printf.sprintf "s%d_hot" hot_stage)
      ~work:(Variate.Constant (work *. factor))
      ();
  stages
