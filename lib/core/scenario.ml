module Engine = Aspipe_des.Engine
module Topology = Aspipe_grid.Topology
module Loadgen = Aspipe_grid.Loadgen
module Netgen = Aspipe_grid.Netgen
module Fault = Aspipe_fault.Fault
module Rng = Aspipe_util.Rng

type t = {
  name : string;
  make_topo : Engine.t -> Topology.t;
  loads : (int * Loadgen.profile) list;
  net_loads : ((int * int) * Loadgen.profile) list;
  faults : (int * Fault.profile) list;
  net_faults : ((int * int) * Fault.profile) list;
  stages : Aspipe_skel.Stage.t array;
  input : Aspipe_skel.Stream_spec.t;
  horizon : float;
}

let make ~name ~make_topo ?(loads = []) ?(net_loads = []) ?(faults = []) ?(net_faults = [])
    ~stages ~input ?(horizon = 1e6) () =
  if Array.length stages = 0 then invalid_arg "Scenario.make: empty pipeline";
  if not (horizon > 0.0) then
    invalid_arg (Printf.sprintf "Scenario.make: horizon must be positive (got %g)" horizon);
  List.iter (fun (_, profile) -> Fault.check_horizon ~horizon profile) faults;
  List.iter (fun (_, profile) -> Fault.check_horizon ~horizon profile) net_faults;
  { name; make_topo; loads; net_loads; faults; net_faults; stages; input; horizon }

let build t ~rng =
  let engine = Engine.create () in
  let topo = t.make_topo engine in
  List.iter
    (fun (node, profile) ->
      let load_rng = Rng.split rng in
      Loadgen.apply_until ~rng:load_rng ~horizon:t.horizon topo node profile)
    t.loads;
  List.iter
    (fun ((a, b), profile) ->
      let net_rng = Rng.split rng in
      Netgen.apply_pair ~rng:net_rng ~horizon:t.horizon topo a b profile)
    t.net_loads;
  (* Fault schedules split the rng after (never between) the load splits, so
     scenarios without faults consume exactly the rng stream they always
     did — fault-free runs stay byte-identical. *)
  List.iter
    (fun (node, profile) ->
      let fault_rng = Rng.split rng in
      Fault.apply_node ~rng:fault_rng ~horizon:t.horizon topo node profile)
    t.faults;
  List.iter
    (fun ((a, b), profile) ->
      let fault_rng = Rng.split rng in
      Fault.apply_link ~rng:fault_rng ~horizon:t.horizon topo a b profile)
    t.net_faults;
  topo

let stage_count t = Array.length t.stages
