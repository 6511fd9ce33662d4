module Engine = Aspipe_des.Engine
module Rng = Aspipe_util.Rng
module Variate = Aspipe_util.Variate

(* layout: out of line (DESIGN "Code layout") *)
let[@inline never] require_rng = function
  | Some rng -> rng
  | None -> invalid_arg "Netgen: this profile is stochastic and needs ~rng"

(* Drive [set] (a quality setter) with a Loadgen profile over the engine. *)
let drive ?rng ~horizon engine set profile =
  let set_at time level =
    if time <= Engine.now engine then set level
    else ignore (Engine.schedule_at engine ~time (fun () -> set level))
  in
  match (profile : Loadgen.profile) with
  | Loadgen.Dedicated -> set 1.0
  | Loadgen.Constant q -> set q
  | Loadgen.Step { at; level } -> set_at at level
  | Loadgen.Steps schedule | Loadgen.Playback schedule ->
      List.iter (fun (time, level) -> set_at time level) schedule
  | Loadgen.Sine { period; base; amplitude; sample_every } ->
      if period <= 0.0 || sample_every <= 0.0 then
        invalid_arg "Netgen: sine requires positive period and sampling step";
      Engine.periodic engine ~start:(Engine.now engine) ~every:sample_every (fun () ->
          let t = Engine.now engine in
          set (base +. (amplitude *. sin (2.0 *. Float.pi *. t /. period)));
          t < horizon)
  | Loadgen.Random_walk { every; sigma; lo; hi } ->
      if every <= 0.0 then invalid_arg "Netgen: random walk requires positive step";
      if lo > hi then invalid_arg "Netgen: random walk bounds inverted";
      let rng = require_rng rng in
      let level = ref hi in
      Engine.periodic engine ~every (fun () ->
          let next = !level +. Variate.normal rng ~mean:0.0 ~stddev:sigma in
          let next =
            if next > hi then hi -. (next -. hi)
            else if next < lo then lo +. (lo -. next)
            else next
          in
          level := Float.min hi (Float.max lo next);
          set !level;
          Engine.now engine < horizon)
  | Loadgen.Markov_on_off { to_busy_rate; to_free_rate; busy_level } ->
      if to_busy_rate <= 0.0 || to_free_rate <= 0.0 then
        invalid_arg "Netgen: on/off rates must be positive";
      let rng = require_rng rng in
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

let apply_pair ?rng ~horizon topo a b profile =
  let forward = Topology.link topo ~src:a ~dst:b in
  let backward = Topology.link topo ~src:b ~dst:a in
  let set q =
    Link.set_quality forward q;
    Link.set_quality backward q
  in
  drive ?rng ~horizon (Topology.engine topo) set profile
