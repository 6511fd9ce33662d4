(* aspipe — command-line front end.

   Subcommands:
     list-experiments        enumerate the reconstructed tables/figures
     experiment <id>         regenerate one (or `all`)
     campaign                run the registry through the multicore runner
     simulate                run an ad-hoc adaptive-vs-static comparison
                             (--arrivals switches it to an open serving stream)
     serve                   open-arrival serving demo: autoscalers vs a latency SLO
     trace-export            run a scenario and export Perfetto/JSONL telemetry
     metrics                 run a scenario and print the metrics snapshot
     faults                  crash nodes mid-run: static DNF vs adaptive failover
     calibrate               show a calibration pass on a synthetic pipeline
     forecast-demo           NWS-style forecaster accuracy on a step signal *)

open Cmdliner

module Rng = Aspipe_util.Rng
module Forecast = Aspipe_util.Forecast
module Stage = Aspipe_skel.Stage
module Stream_spec = Aspipe_skel.Stream_spec
module Loadgen = Aspipe_grid.Loadgen
module Fault = Aspipe_fault.Fault
module Scenario = Aspipe_core.Scenario
module Adaptive = Aspipe_core.Adaptive
module Baselines = Aspipe_core.Baselines
module Calibration = Aspipe_core.Calibration
module Registry = Aspipe_exp.Registry
module Arrival = Aspipe_serve.Arrival
module Slo = Aspipe_serve.Slo
module Autoscaler = Aspipe_serve.Autoscaler
module Serve = Aspipe_serve.Serve
module Json = Aspipe_obs.Json
module Trace_event = Aspipe_obs.Trace_event
module Jsonl = Aspipe_obs.Jsonl
module Meter = Aspipe_obs.Meter
module Metrics = Aspipe_obs.Metrics

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Reduced experiment sizes (same shapes).")

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Log adaptation decisions to stderr.")

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Info else Logs.Warning))

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Root random seed.")

(* A refused input is one line on stderr and exit status 1, never an
   exception trace. *)
let fail msg =
  Printf.eprintf "aspipe: %s\n" msg;
  exit 1

(* The size flags the commands share (--items, --nodes, --stages): a value
   below 1 is refused before any scenario is built. *)
let at_least_one flag value =
  if value < 1 then fail (Printf.sprintf "--%s must be at least 1 (got %d)" flag value)

(* --hot-factor scales a stage's work: NaN or infinity would reach the
   simulator's servers as non-finite work, and a negative factor would
   silently fall back to the balanced pipeline. *)
let hot_factor_ok hot =
  if not (Float.is_finite hot && hot >= 0.0) then
    fail (Printf.sprintf "--hot-factor must be finite and non-negative (got %g)" hot)

(* ------------------------------------------------------- list-experiments *)

let experiment_kind e =
  match e.Registry.kind with Registry.Table -> "table" | Registry.Figure -> "figure"

let list_experiments json =
  if json then
    (* The registry renders itself, so this listing, the text listing and
       campaign --only can never disagree about what exists. *)
    print_endline (Json.to_string (Registry.to_json ()))
  else
    List.iter
      (fun e -> Printf.printf "%-4s %-7s %s\n" e.Registry.id (experiment_kind e) e.Registry.title)
      Registry.all

let list_cmd =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit a JSON array instead of the aligned text.")
  in
  Cmd.v (Cmd.info "list-experiments" ~doc:"List the reconstructed tables and figures")
    Term.(const list_experiments $ json)

(* ------------------------------------------------------------- experiment *)

(* [all] runs the campaign's own per-experiment job ([Registry.job]: header
   plus captured output) in registry order, so [experiment all] and
   [campaign --jobs 1] print the same bytes by construction. Each output is
   flushed as soon as its experiment finishes, so a long run streams and a
   failing experiment keeps the output of the ones before it. *)
let run_experiment quick id =
  if String.lowercase_ascii id = "all" then
    `Ok
      (List.iter
         (fun e ->
           print_string (Registry.job e ~quick ());
           flush stdout)
         Registry.all)
  else
    match Registry.find id with
    | Some e -> `Ok (e.Registry.run ~quick)
    | None -> `Error (false, Printf.sprintf "unknown experiment %S (try list-experiments)" id)

let experiment_cmd =
  let id_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Experiment id (E1..E20 or 'all').")
  in
  Cmd.v (Cmd.info "experiment" ~doc:"Regenerate one experiment (or all)")
    Term.(ret (const run_experiment $ quick_arg $ id_arg))

(* --------------------------------------------------------------- campaign *)

let campaign quick jobs oversubscribe only cache_dir summary_only profile =
  let module Prof = Aspipe_prof.Prof in
  if profile <> None then Prof.enable ();
  match
    Aspipe_runner.Campaign.run
      ?jobs ~oversubscribe ?cache_dir
      ?only:(Option.map (String.split_on_char ',') only)
      ~quick ()
  with
  | report -> (
      if not summary_only then Aspipe_runner.Campaign.print_outputs report;
      Aspipe_runner.Campaign.print_summary report;
      match profile with
      | None -> `Ok ()
      | Some path -> (
          Prof.disable ();
          let p = Prof.collect () in
          print_string (Aspipe_prof.Report.render p);
          try
            Aspipe_prof.Export.write p ~path;
            let spans =
              List.fold_left
                (fun acc tl -> acc + List.length tl.Aspipe_prof.Prof.spans)
                0 p.Aspipe_prof.Prof.timelines
            in
            Printf.printf
              "wrote runner profile (%d spans, %d domains) to %s — open in ui.perfetto.dev\n"
              spans
              (List.length p.Aspipe_prof.Prof.timelines)
              path;
            `Ok ()
          with Sys_error msg -> `Error (false, "cannot write profile: " ^ msg)))
  | exception Invalid_argument msg -> `Error (false, msg)

let campaign_cmd =
  let jobs =
    Arg.(value
        & opt (some int) None
        & info [ "jobs"; "j" ] ~docv:"N"
            ~doc:"Worker domains (default: the recommended domain count; capped at the core \
                  count unless $(b,--oversubscribe)). Output is byte-identical whatever the \
                  value.")
  in
  let oversubscribe =
    Arg.(value
        & flag
        & info [ "oversubscribe" ]
            ~doc:"Take $(b,--jobs) literally even beyond the recommended domain count \
                  (more domains than cores multiply stop-the-world GC barriers; useful \
                  only for measuring that effect).")
  in
  let profile =
    Arg.(value
        & opt ~vopt:(Some "aspipe-profile.json") (some string) None
        & info [ "profile" ] ~docv:"FILE"
            ~doc:"Record a wall-clock runner profile: per-domain timelines to FILE \
                  (Perfetto JSON, default $(b,aspipe-profile.json)) plus a contention \
                  report after the summary.")
  in
  let only =
    Arg.(value
        & opt (some string) None
        & info [ "only" ] ~docv:"IDS" ~doc:"Comma-separated experiment ids, e.g. $(b,E1,E18).")
  in
  let cache_dir =
    Arg.(value
        & opt (some string) None
        & info [ "cache-dir" ] ~docv:"DIR"
            ~doc:"Content-addressed result cache: unchanged experiments of an unchanged binary \
                  replay from disk.")
  in
  let summary_only =
    Arg.(value & flag & info [ "summary-only" ] ~doc:"Print only the runner summary, not the experiment outputs.")
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Run the experiment registry in parallel on a domain pool (deterministic output)")
    Term.(
      ret
        (const campaign $ quick_arg $ jobs $ oversubscribe $ only $ cache_dir $ summary_only
       $ profile))

(* --------------------------------------------------------------- simulate *)

(* Shared ad-hoc scenario of simulate / trace-export / metrics: a uniform
   grid, an optionally hot middle stage, and a load step on node 0. With
   [quick], sizes shrink to values under which the default threshold policy
   still commits at least one adaptation. *)
let cli_scenario ?(faults = []) ?(horizon = 1e5) ~quick ~nodes ~stages ~items ~hot ~step_at () =
  let items = if quick then min items 150 else items in
  let step_at = if quick && step_at > 0.0 then Float.min step_at 30.0 else step_at in
  let stage_array =
    if hot > 1.0 then Aspipe_workload.Synthetic.hot_stage ~n:stages ~factor:hot ()
    else Aspipe_workload.Synthetic.balanced ~n:stages ()
  in
  let loads =
    if step_at > 0.0 then [ (0, Loadgen.Step { at = step_at; level = 0.2 }) ] else []
  in
  try
    Scenario.make ~name:"cli"
      ~make_topo:(fun engine ->
        Aspipe_grid.Topology.uniform engine ~n:nodes ~speed:10.0 ~latency:0.01 ~bandwidth:1e7 ())
      ~loads ~faults ~stages:stage_array
      ~input:(Stream_spec.make ~arrival:(Stream_spec.Spaced 0.3) ~items ())
      ~horizon ()
  with Invalid_argument msg -> fail msg

let scenario_args =
  let nodes = Arg.(value & opt int 3 & info [ "nodes" ] ~doc:"Grid size.") in
  let stages = Arg.(value & opt int 4 & info [ "stages" ] ~doc:"Pipeline stages.") in
  let items = Arg.(value & opt int 500 & info [ "items" ] ~doc:"Input items.") in
  let hot = Arg.(value & opt float 1.0 & info [ "hot-factor" ] ~doc:"Cost multiplier of the middle stage.") in
  let step = Arg.(value & opt float 60.0 & info [ "step-at" ] ~doc:"Time of a load step on node 0 (0 = none).") in
  Term.(const (fun nodes stages items hot step_at ->
            at_least_one "nodes" nodes;
            at_least_one "stages" stages;
            at_least_one "items" items;
            hot_factor_ok hot;
            (nodes, stages, items, hot, step_at))
        $ nodes $ stages $ items $ hot $ step)

let simulate verbose quick seed (nodes, stages, items, hot, step_at) fault_spec arrivals summary
    csv_dir trace_out =
  setup_logs verbose;
  let faults =
    match fault_spec with
    | None -> []
    | Some spec -> ( try Fault.parse_spec spec with Invalid_argument msg -> fail msg)
  in
  let collector = Trace_event.create () in
  (* The per-stage summary and the Gantt rows read every service and
     transfer, which only a trace subscribed to the bus records; the run's
     own trace keeps just completions, sojourns and adaptations. *)
  let records = Aspipe_grid.Trace.create () in
  let wants_records = summary || csv_dir <> None in
  let instrument =
    if trace_out = None && not wants_records then None
    else
      Some
        (fun bus ->
          if trace_out <> None then Trace_event.attach collector bus;
          if wants_records then Aspipe_grid.Trace.subscribe records bus)
  in
  let () =
    match arrivals with
    | Some spec ->
        (* Open serving mode: the same ad-hoc grid (load step and --faults
           included), but the input is an open arrival process instead of a
           finite batch. Makespan is meaningless here, so both rows report
           serving terms — sojourn quantiles, SLO attainment, node-seconds —
           with the divergence trigger standing in for "adaptive". *)
        let arrival = try Arrival.parse_spec spec with Invalid_argument msg -> fail msg in
        let horizon = if quick then 120.0 else 300.0 in
        let scenario =
          cli_scenario ~faults ~horizon ~quick ~nodes ~stages ~items ~hot ~step_at ()
        in
        let slo = Slo.spec ~target_quantile:0.95 ~threshold:6.0 ~window:30.0 in
        let run ?instrument autoscaler =
          Serve.run ?instrument ~initial:`Best ~autoscaler ~arrival ~slo ~scenario ~seed ()
        in
        let static = run (Autoscaler.static ()) in
        let adaptive = run ?instrument (Autoscaler.remap_on_divergence ()) in
        Format.printf "static-best-mapping : %a@." Serve.pp_report static;
        Format.printf "adaptive            : %a@." Serve.pp_report adaptive
    | None ->
        let scenario = cli_scenario ~faults ~quick ~nodes ~stages ~items ~hot ~step_at () in
        (* Under a fault schedule the static mapping may never finish, so
           probe the fault-free world for its mapping and report a DNF
           honestly. *)
        (if faults = [] then
           let static = Baselines.static_model_best ~scenario ~seed () in
           Printf.printf "static-model-best : mapping %s, makespan %.1f s\n"
             (Aspipe_model.Mapping.to_string static.Baselines.mapping)
             static.Baselines.makespan
         else
           let base = cli_scenario ~quick ~nodes ~stages ~items ~hot ~step_at () in
           let nominal = Baselines.static_model_best ~scenario:base ~seed () in
           let static =
             Baselines.static_faulty ~label:"static-model-best"
               ~mapping:(Aspipe_model.Mapping.to_array nominal.Baselines.mapping)
               ~scenario ~seed ()
           in
           Printf.printf "static-model-best : mapping %s, %s (%d/%d items, %d lost)\n"
             (Aspipe_model.Mapping.to_string static.Baselines.f_mapping)
             (match static.Baselines.finish with
             | Some f -> Printf.sprintf "makespan %.1f s" f
             | None -> "DNF")
             static.Baselines.completed static.Baselines.total static.Baselines.items_lost);
        let adaptive = Adaptive.run ?instrument ~scenario ~seed () in
        Format.printf "adaptive          : %a@." Adaptive.pp_report adaptive
  in
  if summary then
    Aspipe_util.Render.Table.print (Aspipe_grid.Trace_stats.summary_table records ~stages);
  (match trace_out with
  | None -> ()
  | Some path -> (
      try
        Trace_event.write collector ~path;
        Printf.printf
          "wrote Chrome trace-event JSON (%d events) to %s — open in ui.perfetto.dev\n"
          (Trace_event.events_collected collector)
          path
      with Sys_error msg -> fail ("cannot write trace: " ^ msg)));
  match csv_dir with
  | None -> ()
  | Some dir ->
      Aspipe_util.Csvio.write_rows
        ~path:(Filename.concat dir "gantt.csv")
        (Aspipe_grid.Trace_stats.gantt_rows records);
      let path =
        Aspipe_util.Csvio.save_table ~dir ~basename:"stage_summary"
          (Aspipe_grid.Trace_stats.summary_table records ~stages)
      in
      Printf.printf "wrote %s and %s\n" (Filename.concat dir "gantt.csv") path

let faults_arg =
  Arg.(value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Node fault schedule: semicolon-separated $(i,node:profile) clauses where a profile \
             is $(b,crash\\@T), $(b,crash\\@T+D) (crash then recover after D), \
             $(b,mtbf=M,mttr=R) or $(b,windows=T1+D1,T2+D2,...) — e.g. \
             $(b,0:crash\\@120;1:mtbf=500,mttr=50).")

let arrivals_arg =
  Arg.(value
      & opt (some string) None
      & info [ "arrivals" ] ~docv:"SPEC"
          ~doc:
            "Serve an open arrival process instead of the closed batch: \
             $(b,poisson:RATE), $(b,diurnal:BASE,AMP,PERIOD), \
             $(b,flash:BASE,PEAK,AT,RAMP,DECAY), $(b,mmpp:RATE/HOLD,...) or \
             $(b,replay:T1,T2,...). Reports sojourn quantiles, SLO attainment and \
             node-seconds in place of makespan.")

let simulate_cmd =
  let summary = Arg.(value & flag & info [ "summary" ] ~doc:"Print the per-stage trace summary.") in
  let csv = Arg.(value & opt (some dir) None & info [ "csv" ] ~docv:"DIR" ~doc:"Write gantt.csv and stage_summary.csv to DIR.") in
  let trace = Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc:"Write the adaptive run as Chrome trace-event/Perfetto JSON to FILE.") in
  Cmd.v (Cmd.info "simulate" ~doc:"Ad-hoc adaptive vs static run on a uniform grid")
    Term.(const simulate $ verbose_arg $ quick_arg $ seed_arg $ scenario_args $ faults_arg
          $ arrivals_arg $ summary $ csv $ trace)

(* ------------------------------------------------------------------ serve *)

(* The serving estate mirrors E21–E24: unit-work stages on a uniform grid,
   so capacity comes in clean per-node steps and the autoscalers' choices
   are easy to read off the node-seconds column. *)
let serve_cmd_run verbose quick seed nodes stages horizon arrivals_spec which provision
    threshold quantile window fault_spec show_windows =
  setup_logs verbose;
  at_least_one "nodes" nodes;
  at_least_one "stages" stages;
  let faults =
    match fault_spec with
    | None -> []
    | Some spec -> ( try Fault.parse_spec spec with Invalid_argument msg -> fail msg)
  in
  let arrival = try Arrival.parse_spec arrivals_spec with Invalid_argument msg -> fail msg in
  let slo =
    try Slo.spec ~target_quantile:quantile ~threshold ~window
    with Invalid_argument msg -> fail msg
  in
  let horizon = if quick then horizon /. 2.0 else horizon in
  let scenario =
    try
      Scenario.make ~name:"cli-serve"
        ~make_topo:(fun engine ->
          Aspipe_grid.Topology.uniform engine ~n:nodes ~speed:10.0 ~latency:0.01 ~bandwidth:1e7 ())
        ~faults
        ~stages:
          (Array.init stages (fun i ->
               Stage.make ~name:(Printf.sprintf "srv%d" i) ~output_bytes:1e4 ~state_bytes:1e5
                 ~work:(Aspipe_util.Variate.Constant 1.0) ()))
        ~input:(Stream_spec.make ~item_bytes:1e4 ~items:1 ())
        ~horizon ()
    with Invalid_argument msg -> fail msg
  in
  let run (initial, autoscaler) =
    try Serve.run ~initial ~autoscaler ~arrival ~slo ~provision_rate:provision ~scenario ~seed ()
    with Invalid_argument msg -> fail msg
  in
  let row = function
    | `Static -> (`Best, Autoscaler.static ())
    | `Divergence -> (`Cheapest, Autoscaler.remap_on_divergence ())
    | `Queue -> (`Cheapest, Autoscaler.queue_length ())
    | `Latency -> (`Cheapest, Autoscaler.latency_gradient ())
  in
  let fmt_s x = if Float.is_nan x then "-" else Printf.sprintf "%.2f" x in
  let fmt_pct x = if Float.is_nan x then "-" else Printf.sprintf "%.0f%%" (100.0 *. x) in
  match which with
  | `All ->
      let table =
        Aspipe_util.Render.Table.create
          ~title:
            (Format.asprintf "autoscalers serving %a over %.0f s (%a)" Arrival.pp arrival
               horizon Slo.pp_spec slo)
          ~columns:
            [ "autoscaler"; "arrivals"; "done"; "p50 (s)"; "p99 (s)"; "SLO att."; "node-s"; "remaps" ]
      in
      List.iter
        (fun auto ->
          let r = run (row auto) in
          Aspipe_util.Render.Table.add_row table
            [
              r.Serve.autoscaler_name;
              string_of_int r.Serve.arrivals;
              string_of_int r.Serve.completions;
              fmt_s r.Serve.p50;
              fmt_s r.Serve.p99;
              fmt_pct r.Serve.attainment;
              Printf.sprintf "%.0f" r.Serve.node_seconds;
              string_of_int r.Serve.adaptation_count;
            ])
        [ `Static; `Divergence; `Queue; `Latency ];
      Aspipe_util.Render.Table.print table
  | (`Static | `Divergence | `Queue | `Latency) as auto ->
      let r = run (row auto) in
      Format.printf "%a@." Serve.pp_report r;
      if show_windows then
        List.iter
          (fun (w : Slo.window_stats) ->
            Printf.printf "window %3d ending %7.1f s: %4d done, %3d over SLO  %s\n" w.Slo.index
              w.Slo.until w.Slo.completions w.Slo.violations
              (if w.Slo.attained then "ok" else "MISS"))
          r.Serve.windows

let serve_cmd =
  let nodes = Arg.(value & opt int 5 & info [ "nodes" ] ~doc:"Grid size.") in
  let stages = Arg.(value & opt int 4 & info [ "stages" ] ~doc:"Pipeline stages.") in
  let horizon =
    Arg.(value & opt float 600.0 & info [ "horizon" ] ~docv:"S" ~doc:"Arrival horizon in seconds (halved under $(b,--quick)); the queue then drains.")
  in
  let arrivals =
    Arg.(value
        & opt string "diurnal:1.6,1.2,240"
        & info [ "arrivals" ] ~docv:"SPEC"
            ~doc:"Arrival process (same grammar as $(b,simulate --arrivals)).")
  in
  let autoscaler =
    Arg.(value
        & opt
            (enum
               [ ("all", `All); ("static", `Static); ("divergence", `Divergence);
                 ("queue", `Queue); ("latency", `Latency) ])
            `All
        & info [ "autoscaler" ] ~docv:"NAME"
            ~doc:"Which autoscaler to run: $(b,static), $(b,divergence) (the paper's trigger), \
                  $(b,queue), $(b,latency), or $(b,all) for a comparison table.")
  in
  let provision =
    Arg.(value
        & opt float 1.6
        & info [ "provision" ] ~docv:"RATE"
            ~doc:"Demand (items/s) the initial mapping is provisioned for; scaling autoscalers \
                  start on the cheapest mapping covering it, $(b,static) on the \
                  throughput-best one.")
  in
  let threshold = Arg.(value & opt float 6.0 & info [ "slo-threshold" ] ~docv:"S" ~doc:"Sojourn SLO threshold in seconds.") in
  let quantile = Arg.(value & opt float 0.95 & info [ "slo-quantile" ] ~docv:"Q" ~doc:"SLO target quantile in (0,1).") in
  let window = Arg.(value & opt float 30.0 & info [ "slo-window" ] ~docv:"S" ~doc:"SLO accounting window in seconds.") in
  let windows =
    Arg.(value & flag & info [ "windows" ] ~doc:"Print the per-window attainment series (single-autoscaler runs only).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Open-arrival serving demo: autoscaler policies against a latency SLO")
    Term.(const serve_cmd_run $ verbose_arg $ quick_arg $ seed_arg $ nodes $ stages $ horizon
          $ arrivals $ autoscaler $ provision $ threshold $ quantile $ window $ faults_arg
          $ windows)

(* ----------------------------------------------------------- trace-export *)

let trace_export verbose quick seed (nodes, stages, items, hot, step_at) format out =
  setup_logs verbose;
  let scenario = cli_scenario ~quick ~nodes ~stages ~items ~hot ~step_at () in
  let write_out content =
    match out with
    | None -> print_string content
    | Some path -> (
        try
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () -> output_string oc content);
          Printf.eprintf "wrote %s\n" path
        with Sys_error msg -> fail (Printf.sprintf "cannot write %s: %s" path msg))
  in
  match format with
  | `Perfetto ->
      let collector = Trace_event.create () in
      ignore
        (Adaptive.run ~instrument:(fun bus -> Trace_event.attach collector bus) ~scenario ~seed ());
      write_out (Trace_event.to_string collector ^ "\n")
  | `Jsonl ->
      let buffer = Buffer.create 65536 in
      ignore
        (Adaptive.run
           ~instrument:(fun bus ->
             Aspipe_obs.Bus.subscribe bus (Jsonl.sink_to_buffer buffer))
           ~scenario ~seed ());
      write_out (Buffer.contents buffer)

let trace_export_cmd =
  let format =
    Arg.(value
        & opt (enum [ ("perfetto", `Perfetto); ("jsonl", `Jsonl) ]) `Perfetto
        & info [ "format" ] ~docv:"FMT"
            ~doc:"Output format: $(b,perfetto) (Chrome trace-event JSON) or $(b,jsonl) (one \
                  structured event per line).")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write to FILE instead of stdout.")
  in
  Cmd.v
    (Cmd.info "trace-export"
       ~doc:"Run the adaptive scenario and export its full event stream")
    Term.(const trace_export $ verbose_arg $ quick_arg $ seed_arg $ scenario_args $ format $ out)

(* ---------------------------------------------------------------- metrics *)

let metrics verbose quick seed (nodes, stages, items, hot, step_at) json =
  setup_logs verbose;
  let scenario = cli_scenario ~quick ~nodes ~stages ~items ~hot ~step_at () in
  let meter = ref None in
  let report =
    Adaptive.run
      ~instrument:(fun bus -> meter := Some (Meter.attach bus))
      ~scenario ~seed ()
  in
  match !meter with
  | None -> assert false
  | Some meter ->
      let snapshot = Meter.snapshot meter in
      if json then print_endline (Json.to_string (Metrics.snapshot_to_json snapshot))
      else begin
        Format.printf "%a@." Adaptive.pp_report report;
        print_string (Metrics.render snapshot)
      end

let metrics_cmd =
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the snapshot as JSON.") in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Run the adaptive scenario and print its metrics-registry snapshot")
    Term.(const metrics $ verbose_arg $ quick_arg $ seed_arg $ scenario_args $ json)

(* ------------------------------------------------------------------ farm *)

let farm verbose seed nodes items step_at =
  setup_logs verbose;
  (* Speeds fall by 1.5 per node, so ten nodes is the most that stay positive. *)
  if nodes < 1 || nodes > 10 then
    fail (Printf.sprintf "--nodes must be between 1 and 10 (got %d)" nodes);
  at_least_one "items" items;
  let speeds = Array.init nodes (fun i -> 14.0 -. (1.5 *. Float.of_int i)) in
  let loads =
    if step_at > 0.0 && nodes > 1 then [ (1, Loadgen.Step { at = step_at; level = 0.15 }) ]
    else []
  in
  let scenario =
    Scenario.make ~name:"cli-farm"
      ~make_topo:(fun engine ->
        Aspipe_grid.Topology.heterogeneous engine ~speeds ~latency:0.01 ~bandwidth:1e7 ())
      ~loads
      ~stages:
        [| Aspipe_skel.Stage.make ~name:"task" ~state_bytes:0.0
             ~work:(Aspipe_util.Variate.Constant 1.0) () |]
      ~input:(Stream_spec.make ~arrival:(Stream_spec.Spaced 0.06) ~items ())
      ~horizon:1e5 ()
  in
  (* The farm is a one-stage replicated pipeline under a round-robin deal. *)
  let module AR = Aspipe_core.Adaptive_repl in
  let round_robin = { AR.default_config with dispatch = Aspipe_skel.Repl_sim.Round_robin } in
  let static = AR.run ~config:{ round_robin with adapt = false } ~scenario ~seed () in
  let adaptive = AR.run ~config:round_robin ~scenario ~seed () in
  Format.printf "static:   %a@." AR.pp_report static;
  Format.printf "adaptive: %a@." AR.pp_report adaptive

let farm_cmd =
  let nodes = Arg.(value & opt int 6 & info [ "nodes" ] ~doc:"Grid size (speeds 14, 12.5, 11, ...).") in
  let items = Arg.(value & opt int 1200 & info [ "items" ] ~doc:"Input items.") in
  let step = Arg.(value & opt float 20.0 & info [ "step-at" ] ~doc:"Time of a load step on node 1 (0 = none).") in
  Cmd.v (Cmd.info "farm" ~doc:"Adaptive vs static task farm on a heterogeneous grid")
    Term.(const farm $ verbose_arg $ seed_arg $ nodes $ items $ step)

(* ------------------------------------------------------------- replicate *)

let replicate verbose seed nodes stages hot items =
  setup_logs verbose;
  at_least_one "stages" stages;
  if nodes < stages then
    fail (Printf.sprintf "--nodes must be at least --stages (%d), one node per stage (got %d)"
            stages nodes);
  hot_factor_ok hot;
  at_least_one "items" items;
  let stage_array = Aspipe_workload.Synthetic.hot_stage ~n:stages ~factor:hot () in
  let scenario =
    Scenario.make ~name:"cli-repl"
      ~make_topo:(fun engine ->
        Aspipe_grid.Topology.uniform engine ~n:nodes ~speed:10.0 ~latency:0.01 ~bandwidth:1e7 ())
      ~stages:stage_array
      ~input:(Stream_spec.make ~items ())
      ~horizon:1e5 ()
  in
  let module AR = Aspipe_core.Adaptive_repl in
  let report = AR.run ~scenario ~seed () in
  Format.printf "%a@." AR.pp_report report

let replicate_cmd =
  let nodes = Arg.(value & opt int 7 & info [ "nodes" ] ~doc:"Grid size.") in
  let stages = Arg.(value & opt int 4 & info [ "stages" ] ~doc:"Pipeline stages.") in
  let hot = Arg.(value & opt float 4.0 & info [ "hot-factor" ] ~doc:"Cost multiplier of the middle stage.") in
  let items = Arg.(value & opt int 500 & info [ "items" ] ~doc:"Input items.") in
  Cmd.v
    (Cmd.info "replicate" ~doc:"Pipeline with model-allocated replicated stages")
    Term.(const replicate $ verbose_arg $ seed_arg $ nodes $ stages $ hot $ items)

(* ----------------------------------------------------------------- faults *)

let faults_demo verbose seed nodes stages items fault_spec =
  setup_logs verbose;
  at_least_one "nodes" nodes;
  at_least_one "stages" stages;
  at_least_one "items" items;
  let schedule = try Fault.parse_spec fault_spec with Invalid_argument msg -> fail msg in
  let scenario ~faults =
    try
      Scenario.make ~name:"cli-faults"
        ~make_topo:(fun engine ->
          Aspipe_grid.Topology.uniform engine ~n:nodes ~speed:10.0 ~latency:0.01 ~bandwidth:1e7 ())
        ~faults
        ~stages:(Aspipe_workload.Synthetic.balanced ~n:stages ())
        ~input:(Stream_spec.make ~arrival:(Stream_spec.Spaced 0.3) ~items ())
        ~horizon:1e5 ()
    with Invalid_argument msg -> fail msg
  in
  let faulty = scenario ~faults:schedule in
  List.iter
    (fun (node, profile) ->
      Format.printf "node %d: %a@." node Fault.pp_profile profile)
    schedule;
  let nominal = Baselines.static_model_best ~scenario:(scenario ~faults:[]) ~seed () in
  let static =
    Baselines.static_faulty ~label:"static"
      ~mapping:(Aspipe_model.Mapping.to_array nominal.Baselines.mapping)
      ~scenario:faulty ~seed ()
  in
  (match static.Baselines.finish with
  | Some f ->
      Printf.printf "static   : finished at %.1f s (%d/%d items, %d lost along the way)\n" f
        static.Baselines.completed static.Baselines.total static.Baselines.items_lost
  | None ->
      Printf.printf "static   : DNF at %d/%d items\n" static.Baselines.completed
        static.Baselines.total;
      Option.iter (Printf.printf "%s\n") static.Baselines.stall);
  let adaptive = Adaptive.run ~scenario:faulty ~seed () in
  Format.printf "adaptive : %a@." Adaptive.pp_report adaptive

let faults_cmd =
  let nodes = Arg.(value & opt int 4 & info [ "nodes" ] ~doc:"Grid size.") in
  let stages = Arg.(value & opt int 4 & info [ "stages" ] ~doc:"Pipeline stages.") in
  let items = Arg.(value & opt int 300 & info [ "items" ] ~doc:"Input items.") in
  let spec =
    Arg.(value
        & opt string "1:crash@40"
        & info [ "faults" ] ~docv:"SPEC"
            ~doc:"Fault schedule (same grammar as $(b,simulate --faults)).")
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:"Demo: crash nodes mid-run and compare static DNF against adaptive failover")
    Term.(const faults_demo $ verbose_arg $ seed_arg $ nodes $ stages $ items $ spec)

(* -------------------------------------------------------------- calibrate *)

let calibrate seed probes =
  at_least_one "probes" probes;
  let stages = Aspipe_workload.Synthetic.noisy ~n:5 ~cv:0.4 () in
  let calibration = Calibration.run ~probes ~rng:(Rng.create seed) stages in
  Format.printf "%a" Calibration.pp calibration;
  let errors = Calibration.relative_error calibration stages in
  Array.iteri (fun i e -> Printf.printf "stage %d relative error: %.1f%%\n" i (100.0 *. e)) errors

let calibrate_cmd =
  let probes = Arg.(value & opt int 5 & info [ "probes" ] ~doc:"Probe items per stage.") in
  Cmd.v (Cmd.info "calibrate" ~doc:"Run the calibration phase on a noisy synthetic pipeline")
    Term.(const calibrate $ seed_arg $ probes)

(* ------------------------------------------------------------ export-pepa *)

let export_pepa stages nodes hot =
  at_least_one "stages" stages;
  at_least_one "nodes" nodes;
  hot_factor_ok hot;
  let engine = Aspipe_des.Engine.create () in
  let topo =
    Aspipe_grid.Topology.uniform engine ~n:nodes ~speed:10.0 ~latency:0.01 ~bandwidth:1e7 ()
  in
  let stage_array =
    if hot > 1.0 then Aspipe_workload.Synthetic.hot_stage ~n:stages ~factor:hot ()
    else Aspipe_workload.Synthetic.balanced ~n:stages ()
  in
  let input = Stream_spec.make ~items:100 ~item_bytes:1e4 () in
  let spec = Aspipe_model.Costspec.of_topology ~topo ~stages:stage_array ~input () in
  let predictor = Aspipe_model.Predictor.make spec in
  let result = Aspipe_model.Predictor.choose predictor in
  print_string (Aspipe_model.Pepa_export.pipeline spec result.Aspipe_model.Search.mapping);
  Printf.printf "// model-chosen mapping %s, predicted throughput %.4f items/s\n"
    (Aspipe_model.Mapping.to_string result.Aspipe_model.Search.mapping)
    result.Aspipe_model.Search.score

let export_pepa_cmd =
  let stages = Arg.(value & opt int 3 & info [ "stages" ] ~doc:"Pipeline stages.") in
  let nodes = Arg.(value & opt int 3 & info [ "nodes" ] ~doc:"Grid size.") in
  let hot = Arg.(value & opt float 1.0 & info [ "hot-factor" ] ~doc:"Cost multiplier of the middle stage.") in
  Cmd.v
    (Cmd.info "export-pepa"
       ~doc:"Print the pipeline's PEPA model for the model-chosen mapping")
    Term.(const export_pepa $ stages $ nodes $ hot)

(* ---------------------------------------------------------- forecast-demo *)

let forecast_demo () =
  let signal = Array.init 80 (fun i -> if i < 40 then 0.9 else 0.3) in
  let forecaster = Forecast.adaptive ~fallback:1.0 () in
  Array.iteri
    (fun i v ->
      let predicted = Forecast.predict forecaster in
      Forecast.observe forecaster v;
      if i mod 8 = 0 then Printf.printf "t=%2d  predicted %.3f  observed %.3f\n" i predicted v)
    signal;
  Printf.printf "ensemble MAE over the run: %.4f\n" (Forecast.mae forecaster);
  List.iter
    (fun (name, mse) -> Printf.printf "  member %-10s mse %.5f\n" name mse)
    (Forecast.members forecaster)

let forecast_cmd =
  Cmd.v (Cmd.info "forecast-demo" ~doc:"Show the NWS-style adaptive forecaster on a step signal")
    Term.(const forecast_demo $ const ())

let () =
  let info = Cmd.info "aspipe" ~version:"1.0.0" ~doc:"Adaptive parallel pipeline pattern for grids" in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; experiment_cmd; campaign_cmd; simulate_cmd; serve_cmd; trace_export_cmd; metrics_cmd; faults_cmd;
            farm_cmd; replicate_cmd; calibrate_cmd; forecast_cmd; export_pepa_cmd;
          ]))
