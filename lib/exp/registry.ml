type kind = Table | Figure

type t = {
  id : string;
  kind : kind;
  title : string;
  run : quick:bool -> unit;
}

let all =
  [
    { id = "E1"; kind = Table; title = "Model validation: analytic & CTMC vs simulation";
      run = (fun ~quick -> Exp_model.run_e1 ~quick) };
    { id = "E2"; kind = Table; title = "Model-chosen vs simulated-best mapping per scenario";
      run = (fun ~quick -> Exp_model.run_e2 ~quick) };
    { id = "E3"; kind = Figure; title = "Throughput timeline under a load step";
      run = (fun ~quick -> Exp_adaptation.run_e3 ~quick) };
    { id = "E4"; kind = Figure; title = "Completion time vs hidden load severity";
      run = (fun ~quick -> Exp_adaptation.run_e4 ~quick) };
    { id = "E5"; kind = Figure; title = "Throughput scalability with processors";
      run = (fun ~quick -> Exp_scale.run_e5 ~quick) };
    { id = "E6"; kind = Table; title = "Cost of the mapping decision path";
      run = (fun ~quick -> Exp_scale.run_e6 ~quick) };
    { id = "E7"; kind = Table; title = "Sensitivity to monitoring interval and threshold";
      run = (fun ~quick -> Exp_adaptation.run_e7 ~quick) };
    { id = "E8"; kind = Figure; title = "Migration-cost crossover";
      run = (fun ~quick -> Exp_adaptation.run_e8 ~quick) };
    { id = "E9"; kind = Table; title = "Forecaster accuracy per signal family";
      run = (fun ~quick -> Exp_forecast.run_e9 ~quick) };
    { id = "E10"; kind = Figure; title = "Shared-memory pipeline & farm speedup";
      run = (fun ~quick -> Exp_mc.run_e10 ~quick) };
    { id = "E11"; kind = Table; title = "Campaign: workloads x strategies on a dynamic grid";
      run = (fun ~quick -> Exp_campaign.run_e11 ~quick) };
    { id = "E12"; kind = Figure; title = "Task farm: dispatch disciplines and adaptive worker sets";
      run = (fun ~quick -> Exp_farm.run_e12 ~quick) };
    { id = "E13"; kind = Table; title = "Ablations: buffer capacity and CTMC solver";
      run = (fun ~quick -> Exp_ablation.run_e13 ~quick) };
    { id = "E14"; kind = Table; title = "Replicating the hot stage inside the pipeline";
      run = (fun ~quick -> Exp_replication.run_e14 ~quick) };
    { id = "E15"; kind = Figure; title = "Adaptation to network congestion (colocate to survive)";
      run = (fun ~quick -> Exp_network.run_e15 ~quick) };
    { id = "E16"; kind = Figure; title = "Remote-site offload crossover";
      run = (fun ~quick -> Exp_multisite.run_e16 ~quick) };
    { id = "E17"; kind = Table; title = "Policy ablation on the dynamic grid";
      run = (fun ~quick -> Exp_policy.run_e17 ~quick) };
    { id = "E18"; kind = Table; title = "Mid-run node crash: DNF vs restart vs failover";
      run = (fun ~quick -> Exp_fault.run_e18 ~quick) };
    { id = "E19"; kind = Table; title = "MTBF sweep under Poisson crash-repair";
      run = (fun ~quick -> Exp_fault.run_e19 ~quick) };
    { id = "E20"; kind = Table; title = "Network partition mid-run (blackout, colocate to survive)";
      run = (fun ~quick -> Exp_fault.run_e20 ~quick) };
    { id = "E21"; kind = Table; title = "Serving: autoscalers over a diurnal arrival cycle";
      run = (fun ~quick -> Exp_serve.run_e21 ~quick) };
    { id = "E22"; kind = Table; title = "Serving: flash crowd blind spot of the divergence trigger";
      run = (fun ~quick -> Exp_serve.run_e22 ~quick) };
    { id = "E23"; kind = Table; title = "Serving: recorded arrival trace replayed across autoscalers";
      run = (fun ~quick -> Exp_serve.run_e23 ~quick) };
    { id = "E24"; kind = Table; title = "Serving: mid-run outage of the provisioned host";
      run = (fun ~quick -> Exp_serve.run_e24 ~quick) };
  ]

let ids = List.map (fun e -> e.id) all

let to_json () =
  Aspipe_obs.Json.List
    (List.map
       (fun e ->
         Aspipe_obs.Json.Obj
           [
             ("id", Aspipe_obs.Json.String e.id);
             ("kind", Aspipe_obs.Json.String (match e.kind with Table -> "table" | Figure -> "figure"));
             ("title", Aspipe_obs.Json.String e.title);
           ])
       all)

let find id =
  let target = String.uppercase_ascii id in
  List.find_opt (fun e -> String.uppercase_ascii e.id = target) all

let header e =
  Printf.sprintf "######## %s (%s): %s ########\n" e.id
    (match e.kind with Table -> "table" | Figure -> "figure")
    e.title

let job e ~quick () =
  Aspipe_util.Out.capture (fun () ->
      Aspipe_util.Out.print_string (header e);
      e.run ~quick)
