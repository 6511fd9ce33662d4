module Stage = Aspipe_skel.Stage
module Repl_sim = Aspipe_skel.Repl_sim
module Rng = Aspipe_util.Rng
module Render = Aspipe_util.Render
module Costspec = Aspipe_model.Costspec
module Repl_model = Aspipe_model.Repl_model
module Scenario = Aspipe_core.Scenario
module Adaptive_repl = Aspipe_core.Adaptive_repl
module Loadgen = Aspipe_grid.Loadgen
module Stream_spec = Aspipe_skel.Stream_spec

let processors = 7

type row = {
  label : string;
  replicas : int list array;
  predicted : float;
  measured : float;
}

let hot_stages () = Aspipe_workload.Synthetic.hot_stage ~n:4 ~hot:2 ~factor:4.0 ()

let scenario ~quick =
  let items = Common.scale ~quick 1000 in
  Scenario.make ~name:"replication"
    ~make_topo:(Common.uniform_grid ~n:processors ())
    ~stages:(hot_stages ())
    ~input:(Common.batch_input ~item_bytes:1e4 ~items ())
    ()

let replica_label replicas =
  String.concat " "
    (Array.to_list
       (Array.map (fun ns -> "{" ^ String.concat "," (List.map string_of_int ns) ^ "}") replicas))

let rows ~quick =
  let scenario = scenario ~quick in
  let stages = hot_stages () in
  let reference_topo = Scenario.build scenario ~rng:(Rng.create 77) in
  let spec =
    Costspec.of_topology ~topo:reference_topo ~stages ~input:scenario.Scenario.input ()
  in
  let measure replicas =
    let topo = Scenario.build scenario ~rng:(Rng.create 78) in
    let trace =
      Repl_sim.execute ~rng:(Rng.create 79) ~topo ~stages ~replicas
        ~input:scenario.Scenario.input ()
    in
    Common.steady_throughput trace
  in
  let hot_replicated k =
    [| [ 0 ]; [ 1 ]; List.init k (fun i -> 2 + i); [ 2 + k ] |]
  in
  let swept =
    List.map
      (fun k ->
        let replicas = hot_replicated k in
        {
          label = Printf.sprintf "hot stage x%d" k;
          replicas;
          predicted = Repl_model.throughput spec ~replicas;
          measured = measure replicas;
        })
      [ 1; 2; 3; 4 ]
  in
  let greedy_replicas, greedy_predicted =
    Repl_model.best_replication spec ~budget:processors ~processors
  in
  swept
  @ [
      {
        label = Printf.sprintf "greedy, budget %d" processors;
        replicas = greedy_replicas;
        predicted = greedy_predicted;
        measured = measure greedy_replicas;
      };
    ]

type dynamic_result = {
  label : string;
  makespan : float;
  reconfigurations : int;
  final_replicas : int list array;
}

let dynamic_results ~quick =
  let items = Common.scale ~quick 1500 in
  let spacing = 0.167 in
  let step_at = spacing *. Float.of_int items *. 0.35 in
  let scenario =
    Scenario.make ~name:"replication-dyn"
      ~make_topo:(Common.uniform_grid ~n:processors ())
      ~loads:[ (3, Loadgen.Step { at = step_at; level = 0.1 }) ]
      ~stages:(hot_stages ())
      ~input:(Stream_spec.make ~arrival:(Stream_spec.Spaced spacing) ~item_bytes:1e4 ~items ())
      ~horizon:1e5 ()
  in
  let static =
    Adaptive_repl.run ~config:{ Adaptive_repl.default_config with adapt = false } ~scenario
      ~seed:21 ()
  in
  let adaptive = Adaptive_repl.run ~scenario ~seed:21 () in
  List.map
    (fun (label, (r : Adaptive_repl.report)) ->
      {
        label;
        makespan = r.Adaptive_repl.makespan;
        reconfigurations = r.Adaptive_repl.reconfigurations;
        final_replicas = r.Adaptive_repl.final_replicas;
      })
    [ ("static replication", static); ("adaptive replication", adaptive) ]

let run_e14 ~quick =
  let all = rows ~quick in
  let table =
    Render.Table.create
      ~title:"E14: replicating the hot stage (4-stage pipeline, stage 2 costs 4x, 7 nodes)"
      ~columns:[ "configuration"; "replica sets"; "predicted X"; "measured X"; "meas/pred" ]
  in
  List.iter
    (fun (r : row) ->
      Render.Table.add_row table
        [
          r.label;
          replica_label r.replicas;
          Printf.sprintf "%.2f" r.predicted;
          Printf.sprintf "%.2f" r.measured;
          Printf.sprintf "%.3f" (r.measured /. r.predicted);
        ])
    all;
  Render.Table.print table;
  let dynamic = dynamic_results ~quick in
  Aspipe_util.Out.printf "E14b: a hot-stage replica node collapses to 10%% mid-run\n";
  List.iter
    (fun r ->
      Aspipe_util.Out.printf "%-22s makespan %8.1f s, %d reconfiguration(s), final %s\n" r.label
        r.makespan r.reconfigurations (replica_label r.final_replicas))
    dynamic;
  Render.print_figure ~title:"E14 (figure): throughput vs hot-stage replicas"
    ~x_label:"replicas of the hot stage" ~y_label:"items/s"
    [
      Render.Series.make "measured"
        (Array.of_list
           (List.filteri (fun i _ -> i < 4) all
           |> List.mapi (fun i r -> (Float.of_int (i + 1), r.measured))));
      Render.Series.make "model"
        (Array.of_list
           (List.filteri (fun i _ -> i < 4) all
           |> List.mapi (fun i r -> (Float.of_int (i + 1), r.predicted))));
    ];
  Aspipe_util.Out.newline ()
