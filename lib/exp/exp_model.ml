module Engine = Aspipe_des.Engine
module Topology = Aspipe_grid.Topology
module Node = Aspipe_grid.Node
module Link = Aspipe_grid.Link
module Stage = Aspipe_skel.Stage
module Variate = Aspipe_util.Variate
module Rng = Aspipe_util.Rng
module Render = Aspipe_util.Render
module Mapping = Aspipe_model.Mapping
module Costspec = Aspipe_model.Costspec
module Analytic = Aspipe_model.Analytic
module Ctmc = Aspipe_model.Ctmc
module Predictor = Aspipe_model.Predictor
module Search = Aspipe_model.Search
module Scenario = Aspipe_core.Scenario
module Baselines = Aspipe_core.Baselines

(* ------------------------------------------------------------------ E1 *)

type e1_row = {
  mapping : int array;
  analytic : float;
  ctmc : float;
  simulated : float;
}

let e1_stages () =
  Array.init 3 (fun i ->
      Stage.make
        ~name:(Printf.sprintf "e1s%d" i)
        ~output_bytes:1e4
        ~work:(Variate.Exponential { rate = 1.0 })
        ())

let e1_scenario ~quick =
  let items = Common.scale ~quick 400 in
  Scenario.make ~name:"e1"
    ~make_topo:(Common.uniform_grid ~n:3 ~latency:0.001 ())
    ~stages:(e1_stages ()) ~input:(Common.batch_input ~item_bytes:1e4 ~items ()) ()

let e1_rows ~quick =
  let scenario = e1_scenario ~quick in
  let seed = 1 in
  (* A throwaway world gives the ground-truth cost spec. *)
  let topo = Scenario.build scenario ~rng:(Rng.create 99) in
  let spec =
    Costspec.of_topology ~topo ~stages:scenario.Scenario.stages ~input:scenario.Scenario.input ()
  in
  let mappings = Mapping.enumerate ~fix_first_on:0 ~stages:3 ~processors:3 () in
  (* Each mapping simulates independently (the scenario spec is immutable
     and every probe builds its own world), so the grid splits across the
     campaign pool's workers. *)
  Common.par_map
    (fun m ->
      {
        mapping = Mapping.to_array m;
        analytic = Analytic.throughput spec m;
        ctmc = Ctmc.throughput (Ctmc.of_costspec spec m);
        simulated = Common.simulated_throughput ~scenario ~seed ~mapping:(Mapping.to_array m);
      })
    mappings

let e1_rank_correlations rows =
  let column f = Array.of_list (List.map f rows) in
  let sim = column (fun r -> r.simulated) in
  ( Common.spearman (column (fun r -> r.analytic)) sim,
    Common.spearman (column (fun r -> r.ctmc)) sim )

let mapping_label m =
  "(" ^ String.concat "," (List.map string_of_int (Array.to_list m)) ^ ")"

let run_e1 ~quick =
  let rows = e1_rows ~quick in
  let table =
    Render.Table.create
      ~title:"E1: model validation, 3 stages x 3 processors (throughput, items/s)"
      ~columns:[ "mapping"; "analytic"; "ctmc"; "simulated"; "ctmc/sim"; "analytic/sim" ]
  in
  List.iter
    (fun r ->
      Render.Table.add_row table
        [
          mapping_label r.mapping;
          Printf.sprintf "%.4f" r.analytic;
          Printf.sprintf "%.4f" r.ctmc;
          Printf.sprintf "%.4f" r.simulated;
          Printf.sprintf "%.3f" (r.ctmc /. r.simulated);
          Printf.sprintf "%.3f" (r.analytic /. r.simulated);
        ])
    rows;
  Render.Table.print table;
  let rho_a, rho_c = e1_rank_correlations rows in
  let argmax column =
    List.fold_left (fun acc r -> if column r > column acc then r else acc) (List.hd rows) rows
  in
  let top_sim = (argmax (fun r -> r.simulated)).simulated in
  Aspipe_util.Out.printf
    "rank correlation vs simulation: analytic rho=%.3f, ctmc rho=%.3f\n\
     top-choice agreement: analytic argmax simulates at %.1f%% of the true best,\n\
     ctmc argmax at %.1f%% (within-tier differences are ~2%%, below model resolution)\n\
     (analytic bounds from above: saturation rate; ctmc bounds from below: bufferless sync)\n\n"
    rho_a rho_c
    (100.0 *. (argmax (fun r -> r.analytic)).simulated /. top_sim)
    (100.0 *. (argmax (fun r -> r.ctmc)).simulated /. top_sim)

(* ------------------------------------------------------------------ E2 *)

type e2_row = {
  label : string;
  model_mapping : int array;
  model_predicted : float;
  model_simulated : float;
  oracle_mapping : int array;
  oracle_simulated : float;
}

(* Paper-style parameter sets: per-stage times t_i on each processor and
   pairwise latencies l_ij (seconds); work is 1.0 per stage so speed_i = 1/t_i. *)
type e2_setting = {
  name : string;
  times : float array;  (* t1 t2 t3 *)
  lat : float array array;  (* symmetric 3x3, diagonal ignored *)
}

let sym l12 l23 l13 =
  [| [| 0.0; l12; l13 |]; [| l12; 0.0; l23 |]; [| l13; l23; 0.0 |] |]

let e2_settings =
  [
    { name = "fast net, equal cpus"; times = [| 0.1; 0.1; 0.1 |]; lat = sym 1e-4 1e-4 1e-4 };
    { name = "fast net, cpu3 busy"; times = [| 0.1; 0.1; 1.0 |]; lat = sym 1e-4 1e-4 1e-4 };
    { name = "slow net, cpu3 busy"; times = [| 0.1; 0.1; 1.0 |]; lat = sym 0.1 0.1 0.1 };
    { name = "very slow net, cpu3 busy"; times = [| 0.1; 0.1; 1.0 |]; lat = sym 1.0 1.0 1.0 };
    { name = "slow links to cpu3"; times = [| 0.1; 0.1; 0.1 |]; lat = sym 0.1 1.0 1.0 };
    { name = "cpu3 fast but remote"; times = [| 1.0; 1.0; 0.01 |]; lat = sym 0.1 1.0 1.0 };
  ]

let e2_scenario ~quick setting =
  let items = Common.scale ~quick 300 in
  let make_topo engine =
    let nodes =
      Array.mapi (fun id t -> Node.create engine ~id ~speed:(1.0 /. t) ()) setting.times
    in
    let links ~src ~dst =
      Link.create engine ~latency:setting.lat.(src).(dst) ~bandwidth:1e8 ()
    in
    let user_links _ = Link.create engine ~latency:1e-4 ~bandwidth:1e8 () in
    Topology.custom engine ~nodes ~links ~user_links
  in
  let stages =
    Array.init 3 (fun i ->
        Stage.make
          ~name:(Printf.sprintf "e2s%d" i)
          ~output_bytes:1e3
          ~work:(Variate.Constant 1.0)
          ())
  in
  Scenario.make ~name:setting.name ~make_topo ~stages
    ~input:(Common.batch_input ~item_bytes:1e3 ~items ())
    ()

let e2_rows ~quick =
  Common.par_map
    (fun setting ->
      let scenario = e2_scenario ~quick setting in
      let seed = 2 in
      let topo = Scenario.build scenario ~rng:(Rng.create 98) in
      let spec =
        Costspec.of_topology ~topo ~stages:scenario.Scenario.stages
          ~input:scenario.Scenario.input ()
      in
      let predictor = Predictor.make spec in
      let model = Predictor.choose ~fix_first_on:0 predictor in
      let model_mapping = Mapping.to_array model.Search.mapping in
      let oracle, _ = Baselines.oracle_static ~fix_first_on:0 ~scenario ~seed () in
      {
        label = setting.name;
        model_mapping;
        model_predicted = model.Search.score;
        model_simulated = Common.simulated_throughput ~scenario ~seed ~mapping:model_mapping;
        oracle_mapping = Mapping.to_array oracle.Baselines.mapping;
        oracle_simulated = Common.steady_throughput oracle.Baselines.trace;
      })
    e2_settings

let run_e2 ~quick =
  let rows = e2_rows ~quick in
  let table =
    Render.Table.create ~title:"E2: model-chosen vs simulated-best mapping (3 stages, 3 cpus)"
      ~columns:
        [ "scenario"; "model map"; "pred X"; "sim X(model)"; "oracle map"; "sim X(oracle)"; "ratio" ]
  in
  List.iter
    (fun r ->
      Render.Table.add_row table
        [
          r.label;
          mapping_label r.model_mapping;
          Printf.sprintf "%.4f" r.model_predicted;
          Printf.sprintf "%.4f" r.model_simulated;
          mapping_label r.oracle_mapping;
          Printf.sprintf "%.4f" r.oracle_simulated;
          Printf.sprintf "%.3f"
            (if r.oracle_simulated > 0.0 then r.model_simulated /. r.oracle_simulated else nan);
        ])
    rows;
  Render.Table.print table;
  Aspipe_util.Out.newline ()
