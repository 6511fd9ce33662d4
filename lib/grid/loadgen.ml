module Engine = Aspipe_des.Engine
module Rng = Aspipe_util.Rng
module Variate = Aspipe_util.Variate

type profile =
  | Dedicated
  | Constant of float
  | Step of { at : float; level : float }
  | Steps of (float * float) list
  | Sine of { period : float; base : float; amplitude : float; sample_every : float }
  | Random_walk of { every : float; sigma : float; lo : float; hi : float }
  | Markov_on_off of { to_busy_rate : float; to_free_rate : float; busy_level : float }
  | Playback of (float * float) list

let require_rng ~who = function
  | Some rng -> rng
  | None -> invalid_arg (who ^ ": this profile is stochastic and needs ~rng")

let drive ?rng ~who ~horizon engine ~level set profile =
  let set_at time level =
    if time <= Engine.now engine then set level
    else ignore (Engine.schedule_at engine ~time (fun () -> set level))
  in
  match profile with
  | Dedicated -> set 1.0
  | Constant a -> set a
  | Step { at; level } -> set_at at level
  | Steps schedule | Playback schedule -> List.iter (fun (time, level) -> set_at time level) schedule
  | Sine { period; base; amplitude; sample_every } ->
      if period <= 0.0 || sample_every <= 0.0 then
        invalid_arg (who ^ ": sine requires positive period and sampling step");
      Engine.periodic engine ~start:(Engine.now engine) ~every:sample_every (fun () ->
          let t = Engine.now engine in
          set (base +. (amplitude *. sin (2.0 *. Float.pi *. t /. period)));
          t < horizon)
  | Random_walk { every; sigma; lo; hi } ->
      if every <= 0.0 then invalid_arg (who ^ ": random walk requires positive step");
      if lo > hi then invalid_arg (who ^ ": random walk bounds inverted");
      let rng = require_rng ~who rng in
      let level = ref level in
      Engine.periodic engine ~every (fun () ->
          let next = !level +. Variate.normal rng ~mean:0.0 ~stddev:sigma in
          (* Reflect off the bounds to stay in range without sticking. *)
          let next =
            if next > hi then hi -. (next -. hi)
            else if next < lo then lo +. (lo -. next)
            else next
          in
          level := Float.min hi (Float.max lo next);
          set !level;
          Engine.now engine < horizon)
  | Markov_on_off { to_busy_rate; to_free_rate; busy_level } ->
      if to_busy_rate <= 0.0 || to_free_rate <= 0.0 then
        invalid_arg (who ^ ": on/off rates must be positive");
      let rng = require_rng ~who rng in
      let rec go_free () =
        set 1.0;
        let hold = Variate.exponential rng ~rate:to_busy_rate in
        if Engine.now engine +. hold < horizon then
          ignore (Engine.schedule engine ~delay:hold go_busy)
      and go_busy () =
        set busy_level;
        let hold = Variate.exponential rng ~rate:to_free_rate in
        if Engine.now engine +. hold < horizon then
          ignore (Engine.schedule engine ~delay:hold go_free)
      in
      go_free ()

let apply_until ?rng ~horizon topo i profile =
  let node = Topology.node topo i in
  drive ?rng ~who:"Loadgen" ~horizon (Topology.engine topo) ~level:(Node.availability node)
    (fun a -> Node.set_availability node a) profile
