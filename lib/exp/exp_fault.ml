module Stage = Aspipe_skel.Stage
module Stream_spec = Aspipe_skel.Stream_spec
module Variate = Aspipe_util.Variate
module Render = Aspipe_util.Render
module Mapping = Aspipe_model.Mapping
module Fault = Aspipe_fault.Fault
module Scenario = Aspipe_core.Scenario
module Adaptive = Aspipe_core.Adaptive
module Policy = Aspipe_core.Policy
module Baselines = Aspipe_core.Baselines

let seed = 18

(* A balanced 4-stage pipeline on 4 unequal nodes: every node carries a
   stage under the model-best mapping, so any node is a meaningful crash
   victim. *)
let crash_stages () =
  Array.init 4 (fun i ->
      Stage.make
        ~name:(Printf.sprintf "ft%d" i)
        ~output_bytes:2e4 ~state_bytes:5e5
        ~work:(Variate.Constant 1.0)
        ())

let crash_scenario ?(faults = []) ~items () =
  Scenario.make ~name:"mid-run-crash"
    ~make_topo:(Common.heterogeneous_grid ~speeds:[| 12.0; 10.0; 10.0; 8.0 |] ())
    ~faults ~stages:(crash_stages ())
    ~input:(Common.batch_input ~items ())
    ~horizon:1e5 ()

type e18_row = {
  label : string;
  finish : float option;
  completed : int;
  total : int;
  items_lost : int;
  items_redispatched : int;
  failovers : int;
  restarts : int;
}

let e18_rows ~quick =
  let items = Common.scale ~quick 400 in
  (* Probe the fault-free world for the model-best static schedule, then
     kill the node that schedule put the tail stage on, 70% of the way
     through its nominal makespan. The same fault schedule is replayed
     against every strategy. *)
  let nominal = Baselines.static_model_best ~scenario:(crash_scenario ~items ()) ~seed () in
  let mapping = Mapping.to_array nominal.Baselines.mapping in
  let victim = mapping.(Array.length mapping - 1) in
  let crash_at = 0.7 *. nominal.Baselines.makespan in
  let scenario = crash_scenario ~faults:[ (victim, Fault.Crash_at crash_at) ] ~items () in
  let static =
    Baselines.static_faulty ~label:"static (model best, no FT)" ~mapping ~scenario ~seed ()
  in
  let restart = Baselines.static_restart ~scenario ~seed () in
  let adaptive = Adaptive.run ~scenario ~seed () in
  ( crash_at,
    victim,
    [
      {
        label = static.Baselines.f_label;
        finish = static.Baselines.finish;
        completed = static.Baselines.completed;
        total = static.Baselines.total;
        items_lost = static.Baselines.items_lost;
        items_redispatched = 0;
        failovers = 0;
        restarts = 0;
      };
      {
        label = "static + restart on failure";
        finish = restart.Baselines.finish;
        completed = restart.Baselines.completed;
        total = restart.Baselines.total;
        items_lost = restart.Baselines.items_lost;
        items_redispatched = 0;
        restarts = restart.Baselines.restarts;
        failovers = 0;
      };
      {
        label = "adaptive failover";
        finish = Some adaptive.Adaptive.makespan;
        completed = Aspipe_grid.Trace.items_completed adaptive.Adaptive.trace;
        total = items;
        items_lost = adaptive.Adaptive.items_lost;
        items_redispatched = adaptive.Adaptive.items_redispatched;
        failovers = adaptive.Adaptive.failover_count;
        restarts = 0;
      };
    ] )

let run_e18 ~quick =
  let crash_at, victim, rows = e18_rows ~quick in
  let table =
    Render.Table.create
      ~title:
        (Printf.sprintf
           "E18: fail-stop crash of node %d at t=%.1f s (the model-best tail-stage host)" victim
           crash_at)
      ~columns:[ "strategy"; "finish (s)"; "completed"; "lost"; "re-dispatched"; "failovers"; "restarts" ]
  in
  List.iter
    (fun r ->
      Render.Table.add_row table
        [
          r.label;
          (match r.finish with Some f -> Printf.sprintf "%.1f" f | None -> "DNF");
          Printf.sprintf "%d/%d" r.completed r.total;
          string_of_int r.items_lost;
          string_of_int r.items_redispatched;
          string_of_int r.failovers;
          string_of_int r.restarts;
        ])
    rows;
  Render.Table.print table;
  Aspipe_util.Out.newline ()

(* ------------------------------------------------------------------ E19 *)

(* MTBF and MTTR only mean anything relative to how long the workload
   runs, so both are expressed as multiples of the arrival span (items x
   spacing) and the sweep keeps its shape in quick mode. *)
let e19_scenario ~mtbf ~mttr ~items () =
  let faults =
    match mtbf with
    | None -> []
    | Some m ->
        (* Node 0 never faults: there is always at least one survivor to
           fail over to, as in a grid with one managed head node. *)
        List.map (fun n -> (n, Fault.Poisson { mtbf = m; mttr })) [ 1; 2; 3 ]
  in
  Scenario.make ~name:"mtbf-sweep"
    ~make_topo:(Common.uniform_grid ~n:4 ())
    ~faults ~stages:(crash_stages ())
    ~input:(Stream_spec.make ~arrival:(Stream_spec.Spaced 0.25) ~item_bytes:1e4 ~items ())
    ~horizon:1e5 ()

type e19_row = {
  mtbf : float option;
  static_finish : float option;
  adaptive_makespan : float;
  throughput : float;
  e19_failovers : int;
  e19_lost : int;
  e19_redispatched : int;
}

let e19_rows ~quick =
  let items = Common.scale ~quick 800 in
  let span = Float.of_int items *. 0.25 in
  let mttr = 0.2 *. span in
  let mtbfs = [ None; Some (4.0 *. span); Some (1.5 *. span); Some (0.5 *. span) ] in
  (* Sweep points are independent replications: each builds its own
     scenario world from explicit seeds, so they split across the pool. *)
  Common.par_map
    (fun mtbf ->
      let scenario = e19_scenario ~mtbf ~mttr ~items () in
      let nominal =
        Baselines.static_model_best ~scenario:(e19_scenario ~mtbf:None ~mttr ~items ()) ~seed ()
      in
      let static =
        Baselines.static_faulty ~label:"static" ~mapping:(Mapping.to_array nominal.Baselines.mapping)
          ~scenario ~seed ()
      in
      let config = { Adaptive.default_config with max_failovers = 64 } in
      let adaptive = Adaptive.run ~config ~scenario ~seed () in
      {
        mtbf;
        static_finish = static.Baselines.finish;
        adaptive_makespan = adaptive.Adaptive.makespan;
        throughput = adaptive.Adaptive.throughput;
        e19_failovers = adaptive.Adaptive.failover_count;
        e19_lost = adaptive.Adaptive.items_lost;
        e19_redispatched = adaptive.Adaptive.items_redispatched;
      })
    mtbfs

let run_e19 ~quick =
  let rows = e19_rows ~quick in
  let table =
    Render.Table.create
      ~title:
        "E19: MTBF sweep (Poisson crash-repair on nodes 1-3, MTTR = 20% of the arrival span; \
         static replays on the same node after repair, adaptive fails over)"
      ~columns:
        [ "MTBF (s)"; "static finish (s)"; "adaptive (s)"; "items/s"; "failovers"; "lost"; "re-dispatched" ]
  in
  List.iter
    (fun r ->
      Render.Table.add_row table
        [
          (match r.mtbf with None -> "no faults" | Some m -> Printf.sprintf "%.0f" m);
          (match r.static_finish with Some f -> Printf.sprintf "%.1f" f | None -> "DNF");
          Printf.sprintf "%.1f" r.adaptive_makespan;
          Printf.sprintf "%.3f" r.throughput;
          string_of_int r.e19_failovers;
          string_of_int r.e19_lost;
          string_of_int r.e19_redispatched;
        ])
    rows;
  Render.Table.print table;
  Aspipe_util.Out.newline ()

(* ------------------------------------------------------------------ E20 *)

(* E15's congestion story with a harder fault: the inter-node routes do not
   degrade to 10%, they black out to the quality floor. A spread static
   mapping keeps paying ~100x transfers; the adaptive engine's link
   forecasts collapse and the search colocates. *)
let partition_scenario ~quick =
  let items = Common.scale ~quick 900 in
  let part_at = 0.3 *. Float.of_int items *. 0.3 in
  let pairs = [ (0, 1); (0, 2); (1, 2) ] in
  Scenario.make ~name:"partition"
    ~make_topo:(Common.heterogeneous_grid ~speeds:[| 12.0; 10.0; 10.0 |] ())
    ~net_faults:(List.map (fun pair -> (pair, Fault.Windows [ (part_at, 1e4) ])) pairs)
    ~stages:
      (Array.init 4 (fun i ->
           Stage.make
             ~name:(Printf.sprintf "part%d" i)
             ~output_bytes:5e5 ~state_bytes:1e6
             ~work:(Variate.Constant 1.0)
             ()))
    ~input:(Stream_spec.make ~arrival:(Stream_spec.Spaced 0.3) ~item_bytes:1e4 ~items ())
    ~horizon:1e5 ()

type e20_row = {
  e20_label : string;
  e20_makespan : float;
  e20_adaptations : int;
  final_mapping : int array;
  final_distinct_nodes : int;
}

let distinct_nodes mapping = List.length (List.sort_uniq compare (Array.to_list mapping))

let e20_rows ~quick =
  let scenario = partition_scenario ~quick in
  let static = Baselines.static_model_best ~scenario ~seed () in
  let adaptive = Adaptive.run ~scenario ~seed () in
  [
    {
      e20_label = "static (model best at t=0)";
      e20_makespan = static.Baselines.makespan;
      e20_adaptations = 0;
      final_mapping = Mapping.to_array static.Baselines.mapping;
      final_distinct_nodes = distinct_nodes (Mapping.to_array static.Baselines.mapping);
    };
    {
      e20_label = "adaptive (threshold policy)";
      e20_makespan = adaptive.Adaptive.makespan;
      e20_adaptations = adaptive.Adaptive.adaptation_count;
      final_mapping = Mapping.to_array adaptive.Adaptive.final_mapping;
      final_distinct_nodes = distinct_nodes (Mapping.to_array adaptive.Adaptive.final_mapping);
    };
  ]

let run_e20 ~quick =
  let rows = e20_rows ~quick in
  let table =
    Render.Table.create
      ~title:
        "E20: network partition mid-run (all inter-node routes black out to the quality floor)"
      ~columns:[ "strategy"; "makespan (s)"; "adaptations"; "final mapping"; "nodes used" ]
  in
  List.iter
    (fun r ->
      Render.Table.add_row table
        [
          r.e20_label;
          Printf.sprintf "%.1f" r.e20_makespan;
          string_of_int r.e20_adaptations;
          String.concat "," (List.map string_of_int (Array.to_list r.final_mapping));
          string_of_int r.final_distinct_nodes;
        ])
    rows;
  Render.Table.print table;
  Aspipe_util.Out.newline ()
