(* Tests for the experiment harness: the registry, the shared helpers and
   quick-size sanity runs of the cheap experiments (the shape claims the
   full benchmark asserts at scale). *)

module Registry = Aspipe_exp.Registry
module Common = Aspipe_exp.Common
module Exp_model = Aspipe_exp.Exp_model
module Exp_forecast = Aspipe_exp.Exp_forecast
module Exp_scale = Aspipe_exp.Exp_scale

let check_close ?(eps = 1e-6) msg a b = Alcotest.(check (float eps)) msg a b

(* ------------------------------------------------------------- Registry *)

let test_registry_complete () =
  Alcotest.(check int) "twenty-four experiments" 24 (List.length Registry.all);
  let ids = List.map (fun e -> e.Registry.id) Registry.all in
  Alcotest.(check int) "ids unique" 24 (List.length (List.sort_uniq compare ids));
  List.iteri
    (fun i id -> Alcotest.(check string) "ordered ids" (Printf.sprintf "E%d" (i + 1)) id)
    ids

(* Every listing surface must derive from the registry: the id list, the
   JSON rendering and [find] have to agree entry for entry, or the CLI's
   list-experiments and campaign --only drift apart. *)
let test_registry_single_source () =
  Alcotest.(check (list string))
    "ids mirror all" (List.map (fun e -> e.Registry.id) Registry.all) Registry.ids;
  List.iter
    (fun id ->
      match Registry.find id with
      | Some e -> Alcotest.(check string) "find agrees with ids" id e.Registry.id
      | None -> Alcotest.fail (Printf.sprintf "listed id %s not findable" id))
    Registry.ids;
  match Registry.to_json () with
  | Aspipe_obs.Json.List entries ->
      Alcotest.(check int) "json entry per experiment" (List.length Registry.ids)
        (List.length entries);
      List.iter2
        (fun id entry ->
          match Aspipe_obs.Json.member "id" entry with
          | Some (Aspipe_obs.Json.String j) -> Alcotest.(check string) "json id" id j
          | _ -> Alcotest.fail "json entry lacks an id field")
        Registry.ids entries
  | _ -> Alcotest.fail "to_json is not a list"

let test_registry_find () =
  (match Registry.find "e3" with
  | Some e -> Alcotest.(check string) "case-insensitive lookup" "E3" e.Registry.id
  | None -> Alcotest.fail "E3 not found");
  Alcotest.(check bool) "unknown id" true (Registry.find "E99" = None)

(* --------------------------------------------------------------- Common *)

let test_spearman () =
  check_close "perfect agreement" 1.0
    (Common.spearman [| 1.0; 2.0; 3.0; 4.0 |] [| 10.0; 20.0; 30.0; 40.0 |]);
  check_close "perfect reversal" (-1.0)
    (Common.spearman [| 1.0; 2.0; 3.0; 4.0 |] [| 4.0; 3.0; 2.0; 1.0 |]);
  Alcotest.check_raises "length mismatch" (Invalid_argument "Common.spearman") (fun () ->
      ignore (Common.spearman [| 1.0 |] [| 1.0; 2.0 |]))

let test_scale () =
  Alcotest.(check int) "full size untouched" 500 (Common.scale ~quick:false 500);
  Alcotest.(check int) "quick divides" 100 (Common.scale ~quick:true 500);
  Alcotest.(check int) "quick floor" 20 (Common.scale ~quick:true 50)

let test_mean_ci () =
  let mean, ci = Common.mean_ci [ 2.0; 4.0 ] in
  check_close "mean" 3.0 mean;
  Alcotest.(check bool) "ci positive for spread data" true (ci > 0.0)

(* ----------------------------------------------- E1 shape at quick size *)

let test_e1_models_rank_like_simulator () =
  let rows = Exp_model.e1_rows ~quick:true in
  Alcotest.(check int) "nine pinned mappings" 9 (List.length rows);
  let rho_analytic, rho_ctmc = Exp_model.e1_rank_correlations rows in
  Alcotest.(check bool)
    (Printf.sprintf "ctmc ranks like the simulator (rho=%.2f)" rho_ctmc)
    true (rho_ctmc > 0.8);
  Alcotest.(check bool)
    (Printf.sprintf "analytic correlates (rho=%.2f)" rho_analytic)
    true (rho_analytic > 0.5);
  List.iter
    (fun (r : Exp_model.e1_row) ->
      Alcotest.(check bool) "ctmc is the conservative bound" true (r.ctmc <= r.simulated +. 0.2);
      Alcotest.(check bool) "analytic is the optimistic bound" true
        (r.analytic >= 0.8 *. r.simulated))
    rows

(* ----------------------------------------------- E2 shape at quick size *)

let test_e2_model_agrees_with_oracle () =
  let rows = Exp_model.e2_rows ~quick:true in
  Alcotest.(check int) "six scenarios" 6 (List.length rows);
  List.iter
    (fun (r : Exp_model.e2_row) ->
      let ratio = r.model_simulated /. r.oracle_simulated in
      Alcotest.(check bool)
        (Printf.sprintf "%s: model within 10%% of oracle (ratio %.3f)" r.label ratio)
        true (ratio > 0.9))
    rows

(* ----------------------------------------------- E9 shape at quick size *)

let test_e9_ensemble_never_catastrophic () =
  let rows = Exp_forecast.rows ~quick:true in
  Alcotest.(check int) "six signal families" 6 (List.length rows);
  List.iter
    (fun (r : Exp_forecast.row) ->
      let maes = List.map snd r.per_forecaster in
      let worst = List.fold_left Float.max 0.0 maes in
      let adaptive = List.assoc "adaptive" r.per_forecaster in
      Alcotest.(check bool)
        (Printf.sprintf "%s: ensemble not the worst" r.signal)
        true
        (adaptive < worst || worst = 0.0);
      Alcotest.(check bool)
        (Printf.sprintf "%s: regret bounded" r.signal)
        true
        (Exp_forecast.ensemble_regret r < 0.15))
    rows

(* ----------------------------------------------- E6 decision-path costs *)

let test_e6_decision_path_is_fast () =
  let rows = Exp_scale.e6_rows ~quick:true in
  List.iter
    (fun (r : Exp_scale.e6_row) ->
      Alcotest.(check bool)
        (Printf.sprintf "Ns=%d Np=%d: sub-second decisions" r.stages r.processors)
        true
        (r.auto_ms < 1000.0 && r.ctmc_solve_ms < 5000.0);
      Alcotest.(check int) "state space accounted" r.ctmc_states
        (int_of_float (3.0 ** Float.of_int r.stages)))
    rows

let () =
  Alcotest.run "aspipe_exp"
    [
      ( "registry",
        [
          Alcotest.test_case "complete" `Quick test_registry_complete;
          Alcotest.test_case "single source" `Quick test_registry_single_source;
          Alcotest.test_case "find" `Quick test_registry_find;
        ] );
      ( "common",
        [
          Alcotest.test_case "spearman" `Quick test_spearman;
          Alcotest.test_case "scale" `Quick test_scale;
          Alcotest.test_case "mean_ci" `Quick test_mean_ci;
        ] );
      ( "shapes",
        [
          Alcotest.test_case "E1 ranking" `Slow test_e1_models_rank_like_simulator;
          Alcotest.test_case "E2 agreement" `Slow test_e2_model_agrees_with_oracle;
          Alcotest.test_case "E9 ensemble" `Quick test_e9_ensemble_never_catastrophic;
          Alcotest.test_case "E6 decision cost" `Quick test_e6_decision_path_is_fast;
        ] );
    ]
