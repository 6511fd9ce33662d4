module Stage = Aspipe_skel.Stage
module Variate = Aspipe_util.Variate

let work = 1.0

let balanced ?(n = 4) () = Stage.balanced ~n ~work ()

let hot_stage ?(n = 4) ?hot ~factor () =
  let hot_stage = match hot with Some h -> h | None -> n / 2 in
  Stage.imbalanced ~n ~work ~hot_stage ~factor ()

let front_heavy ?(n = 4) () =
  if n <= 0 then invalid_arg "Synthetic: n must be positive";
  let ratio = 4.0 in
  (* Costs form a geometric progression whose total equals n × work. *)
  let r = if n = 1 then 1.0 else ratio ** (1.0 /. Float.of_int (n - 1)) in
  let weights = Array.init n (fun i -> r ** Float.of_int i) in
  let weights = Array.of_list (List.rev (Array.to_list weights)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  Array.mapi
    (fun i w ->
      Stage.make
        ~name:(Printf.sprintf "g%d" i)
        ~work:(Variate.Constant (Float.of_int n *. work *. w /. total))
        ())
    weights

let noisy ?(n = 4) ~cv () =
  if cv <= 0.0 then invalid_arg "Synthetic.noisy: cv must be positive";
  (* Gamma with mean = work and cv = 1/sqrt(shape). *)
  let shape = 1.0 /. (cv *. cv) in
  let scale = work /. shape in
  Array.init n (fun i ->
      Stage.make ~name:(Printf.sprintf "n%d" i) ~work:(Variate.Gamma { shape; scale }) ())
