module Stage = Aspipe_skel.Stage
module Stream_spec = Aspipe_skel.Stream_spec
module Repl_sim = Aspipe_skel.Repl_sim
module Variate = Aspipe_util.Variate
module Rng = Aspipe_util.Rng
module Render = Aspipe_util.Render
module Trace = Aspipe_grid.Trace
module Loadgen = Aspipe_grid.Loadgen
module Costspec = Aspipe_model.Costspec
module Repl_model = Aspipe_model.Repl_model
module Scenario = Aspipe_core.Scenario
module Adaptive_repl = Aspipe_core.Adaptive_repl

let seed = 12
let speeds = [| 14.0; 12.0; 10.0; 10.0; 8.0; 6.0 |]

let task () =
  Stage.make ~name:"farm-task" ~output_bytes:1e4 ~state_bytes:0.0
    ~work:(Variate.Constant 1.0) ()

let farm_scenario ~quick ~loads ~spacing ~items =
  let items = Common.scale ~quick items in
  Scenario.make ~name:"farm"
    ~make_topo:(Common.heterogeneous_grid ~speeds ())
    ~loads
    ~stages:[| task () |]
    ~input:(Stream_spec.make ~arrival:(Stream_spec.Spaced spacing) ~item_bytes:1e4 ~items ())
    ~horizon:1e5 ()

(* ------------------------------------------------------------------ E12a *)

type dispatch_row = {
  label : string;
  workers : int list;
  predicted : float;
  measured : float;
}

let dispatch_rows ~quick =
  (* Saturated farm (all items at t=0) on the static heterogeneous grid. *)
  let items = Common.scale ~quick 2000 in
  let scenario =
    Scenario.make ~name:"farm-static"
      ~make_topo:(Common.heterogeneous_grid ~speeds ())
      ~stages:[| task () |]
      ~input:(Common.batch_input ~item_bytes:1e4 ~items ())
      ()
  in
  (* The farm is a one-stage replicated pipeline; the static grid's rates
     are the speeds and the task's mean work is 1. *)
  let stages = [| task () |] in
  let spec =
    Costspec.of_topology ~topo:(Scenario.build scenario ~rng:(Rng.create seed)) ~stages
      ~input:scenario.Scenario.input ()
  in
  let all = List.init (Array.length speeds) Fun.id in
  let best_set, best_predicted = Repl_model.best_round_robin spec in
  let measure ~workers ~dispatch =
    let topo = Scenario.build scenario ~rng:(Rng.create seed) in
    let trace =
      Repl_sim.execute ~rng:(Rng.create (seed + 1)) ~dispatch ~topo ~stages
        ~replicas:[| workers |] ~input:scenario.Scenario.input ()
    in
    Common.steady_throughput trace
  in
  [
    {
      label = "round-robin, all workers";
      workers = all;
      predicted = Repl_model.throughput ~dispatch:Repl_sim.Round_robin spec ~replicas:[| all |];
      measured = measure ~workers:all ~dispatch:Repl_sim.Round_robin;
    };
    {
      label = "round-robin, model-best subset";
      workers = best_set;
      predicted = best_predicted;
      measured = measure ~workers:best_set ~dispatch:Repl_sim.Round_robin;
    };
    {
      label = "least-loaded, all workers";
      workers = all;
      predicted = Repl_model.throughput ~dispatch:Repl_sim.Least_loaded spec ~replicas:[| all |];
      measured = measure ~workers:all ~dispatch:Repl_sim.Least_loaded;
    };
  ]

(* ------------------------------------------------------------------ E12b *)

type adapt_result = {
  label : string;
  series : (float * float) array;
  makespan : float;
  reconfigurations : int;
}

let adapt_results ~quick =
  let items = 3000 in
  let spacing = 0.05 (* 20 items/s offered; clean capacity comfortably above *) in
  let step_at = spacing *. Float.of_int (Common.scale ~quick items) *. 0.35 in
  let loads = [ (1, Loadgen.Step { at = step_at; level = 0.15 }) ] in
  let scenario = farm_scenario ~quick ~loads ~spacing ~items in
  let window = 15.0 in
  let round_robin = { Adaptive_repl.default_config with dispatch = Repl_sim.Round_robin } in
  let static = Adaptive_repl.run ~config:{ round_robin with adapt = false } ~scenario ~seed () in
  let adaptive = Adaptive_repl.run ~config:round_robin ~scenario ~seed () in
  let least_loaded =
    Adaptive_repl.run
      ~config:{ Adaptive_repl.dispatch = Repl_sim.Least_loaded; adapt = false }
      ~scenario ~seed ()
  in
  List.map
    (fun (label, (r : Adaptive_repl.report)) ->
      {
        label;
        series = Trace.throughput_series r.trace ~window;
        makespan = r.makespan;
        reconfigurations = r.reconfigurations;
      })
    [
      ("static round-robin deal", static);
      ("adaptive round-robin deal", adaptive);
      ("least-loaded (static set)", least_loaded);
    ]

let run_e12 ~quick =
  let rows = dispatch_rows ~quick in
  let table =
    Render.Table.create
      ~title:"E12a: farm dispatch on a static heterogeneous grid (items/s)"
      ~columns:[ "strategy"; "workers"; "predicted"; "measured"; "meas/pred" ]
  in
  List.iter
    (fun (r : dispatch_row) ->
      Render.Table.add_row table
        [
          r.label;
          "{" ^ String.concat "," (List.map string_of_int r.workers) ^ "}";
          Printf.sprintf "%.2f" r.predicted;
          Printf.sprintf "%.2f" r.measured;
          Printf.sprintf "%.3f" (r.measured /. r.predicted);
        ])
    rows;
  Render.Table.print table;
  let results = adapt_results ~quick in
  Render.print_figure
    ~title:"E12b: farm throughput timeline, worker 1 collapses mid-run"
    ~x_label:"time (s)" ~y_label:"items/s"
    (List.map (fun r -> Render.Series.make r.label r.series) results);
  List.iter
    (fun r ->
      Aspipe_util.Out.printf "%-28s makespan %8.1f s, %d reconfiguration(s)\n" r.label r.makespan
        r.reconfigurations)
    results;
  Aspipe_util.Out.newline ()
