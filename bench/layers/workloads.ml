(* The four end-to-end workloads, each driven only through the library's
   public entry points. [prepare] builds the inputs from the seed (the work
   setup_s times); [rep] runs one untraced repetition and checks its
   output; [traced] runs one repetition with the profiler on and splits its
   wall time across named layers.

   A repetition takes about a second on a 2-core host, so that one run
   holds enough repetitions for a steady median: 4,000 stream items rather
   than 20,000, a 4 h diurnal cycle rather than 24 h, 4*10^6 ints rather
   than 10^7. The work per item, and so each layer's share, is that of the
   larger shape. *)

module Prof = Aspipe_prof.Prof
module Bus = Aspipe_obs.Bus
module Event = Aspipe_obs.Event
module Rng = Aspipe_util.Rng
module Variate = Aspipe_util.Variate
module Engine = Aspipe_des.Engine
module Topology = Aspipe_grid.Topology
module Loadgen = Aspipe_grid.Loadgen
module Trace = Aspipe_grid.Trace
module Stage = Aspipe_skel.Stage
module Stream_spec = Aspipe_skel.Stream_spec
module Skel_sim = Aspipe_skel.Skel_sim
module Skel_mc = Aspipe_skel.Skel_mc
module Pipe = Aspipe_skel.Pipe
module Mapping = Aspipe_model.Mapping
module Scenario = Aspipe_core.Scenario
module Adaptive = Aspipe_core.Adaptive
module Baselines = Aspipe_core.Baselines
module Policy = Aspipe_core.Policy
module Serve = Aspipe_serve.Serve
module Arrival = Aspipe_serve.Arrival
module Autoscaler = Aspipe_serve.Autoscaler
module Slo = Aspipe_serve.Slo
module Campaign = Aspipe_runner.Campaign

type size = Full | Smoke

let now = Prof.now

let timed f =
  let t0 = now () in
  let y = f () in
  (y, now () -. t0)

let record label t0 t1 =
  if Prof.enabled () then Prof.record Prof.Task ~label ~t0 ~t1 ~a:0 ~b:0 ~words:0.0

let span label f =
  let t0 = now () in
  let y = f () in
  record label t0 (now ());
  y

(* Run [f] with the profiler on; the spans it recorded come back with its
   result. *)
let profiled f =
  Prof.enable ();
  Prof.set_domain ~order:0 "main";
  let y = Fun.protect ~finally:Prof.disable f in
  (Prof.collect (), y)

let spans (profile : Prof.profile) label =
  List.concat_map
    (fun (tl : Prof.timeline) ->
      List.filter_map
        (fun (s : Prof.span) ->
          if s.Prof.kind = Prof.Task && s.Prof.label = label then Some (s.Prof.t1 -. s.Prof.t0)
          else None)
        tl.Prof.spans)
    profile.Prof.timelines

let total profile label = List.fold_left ( +. ) 0.0 (spans profile label)
let digest s = Digest.to_hex (Digest.string s)

type rep = {
  wall : float;  (** the system path, seconds *)
  baseline : float;  (** the same inputs through the reference path *)
  gain : float;  (** the system's result over the reference's *)
  items : int;
  digest : string;  (** must repeat across repetitions of one seed *)
  problems : string list;  (** failed output checks *)
  exact : (string * float) list;  (** deterministic outcomes of the seed *)
}

type split = {
  traced_wall : float;  (** the traced counterpart of [rep.wall] *)
  split_wall : float;  (** the wall the parts divide *)
  parts : (string * float) list;  (** seconds attributed to named layers *)
  values : (string * float) list;  (** the workload's own layer metrics *)
  profile : Prof.profile;
}

type prepared = { rep : unit -> rep; traced : unit -> split }
type t = { name : string; prepare : size -> seed:int -> prepared }

(* --- decision spans ------------------------------------------------------ *)

(* A Control-interest sink on the run's bus: it receives the sparse control
   events without switching on the per-item emit path. It stamps wall-clock
   spans for start-up (calibration and the initial mapping search: from
   the hook to the first event the running engine emits) and for every
   decision (Adaptation_considered to its rejected/committed answer). *)
let decision_hook () =
  let bus = ref None in
  let start = ref 0.0 and considered = ref 0.0 and running = ref false in
  let sink (e : Event.t) =
    if not !running then begin
      running := true;
      record "core.startup" !start (now ())
    end;
    match e.Event.payload with
    | Event.Adaptation_considered _ -> considered := now ()
    | Event.Adaptation_committed _ | Event.Adaptation_rejected _ ->
        record "core.decide" !considered (now ())
    | _ -> ()
  in
  let instrument b =
    bus := Some b;
    start := now ();
    ignore (Bus.subscribe ~interest:Bus.Control b sink)
  in
  let events () = match !bus with Some b -> Bus.events_emitted b | None -> 0 in
  (instrument, events)

let decision_values profile ~items ~events =
  let ms = List.map (fun s -> s *. 1e3) (spans profile "core.decide") in
  [
    ("core.decide_s", total profile "core.decide");
    ("core.decisions", Float.of_int (List.length ms));
    ("core.decide_ms_p50", Sample.percentile ms 50.0);
    ("core.decide_ms_p90", Sample.percentile ms 90.0);
    ("core.startup_ms", 1e3 *. total profile "core.startup");
    ("obs.events_emitted_per_item", Float.of_int events /. Float.of_int items);
  ]

let decision_parts profile =
  List.map (fun l -> (l, total profile l)) [ "core.decide"; "core.startup" ]

(* --- adaptive_search ----------------------------------------------------- *)

(* The E3 load step on 9 unit-work stages over 4 heterogeneous nodes:
   4^9 = 262,144 = Search.default_exhaustive_limit, so every 10 s epoch of
   periodic_best runs the exhaustive branch-and-bound search. *)
let adaptive_scenario ~items =
  Scenario.make ~name:"adaptive-search"
    ~make_topo:(fun engine ->
      Topology.heterogeneous engine ~speeds:[| 12.0; 10.0; 10.0; 8.0 |] ~latency:0.01
        ~bandwidth:1e7 ())
    ~loads:[ (0, Loadgen.Step { at = 0.25 *. Float.of_int items *. 0.4; level = 0.2 }) ]
    ~stages:
      (Array.init 9 (fun i ->
           Stage.make ~name:(Printf.sprintf "s%d" i) ~output_bytes:1e4 ~state_bytes:2e6
             ~work:(Variate.Constant 1.0) ()))
    ~input:(Stream_spec.make ~arrival:(Stream_spec.Spaced 0.25) ~item_bytes:1e4 ~items ())
    ~horizon:1e6 ()

let adaptive_config =
  { Adaptive.default_config with Adaptive.policy = (fun () -> Policy.periodic_best ()) }

let adaptive_digest (r : Adaptive.report) =
  let b = Buffer.create 4096 in
  Printf.bprintf b "%h %h %d %d %s %s" r.Adaptive.makespan r.Adaptive.throughput
    r.Adaptive.adaptation_count r.Adaptive.policy_evaluations
    (Mapping.to_string r.Adaptive.initial_mapping)
    (Mapping.to_string r.Adaptive.final_mapping);
  Array.iter (fun (item, t) -> Printf.bprintf b " %d:%h" item t) (Trace.completions r.Adaptive.trace);
  digest (Buffer.contents b)

let adaptive_search size ~seed =
  let items = match size with Full -> 4_000 | Smoke -> 200 in
  let scenario = adaptive_scenario ~items in
  let run ?instrument () = Adaptive.run ~config:adaptive_config ?instrument ~scenario ~seed () in
  let static mapping =
    Baselines.run_static ~label:"static" ~mapping:(Mapping.to_array mapping) ~scenario ~seed
  in
  let rep () =
    let r, wall = timed run in
    let s, baseline = timed (fun () -> static r.Adaptive.initial_mapping) in
    let completed = Trace.items_completed r.Adaptive.trace in
    {
      wall;
      baseline;
      gain = r.Adaptive.throughput /. s.Baselines.throughput;
      items;
      digest = adaptive_digest r;
      problems =
        (if completed = items then []
         else [ Printf.sprintf "%d of %d items completed" completed items ]);
      exact =
        [ ("virt_throughput_ips", r.Adaptive.throughput); ("virt_makespan_s", r.Adaptive.makespan) ];
    }
  in
  let traced () =
    let instrument, events = decision_hook () in
    let profile, () =
      profiled (fun () ->
          let r = span "core.adaptive_run" (fun () -> run ~instrument ()) in
          span "skel_sim.replay" (fun () -> ignore (static r.Adaptive.final_mapping)))
    in
    let wall = total profile "core.adaptive_run" in
    let replay = total profile "skel_sim.replay" in
    {
      traced_wall = wall;
      split_wall = wall;
      parts = decision_parts profile @ [ ("skel_sim.replay", replay) ];
      values = decision_values profile ~items ~events:(events ()) @ [ ("skel_sim.replay_s", replay) ];
      profile;
    }
  in
  { rep; traced }

(* --- serve_day ----------------------------------------------------------- *)

(* E21's serving estate (4 unit-work stages on 5 equal nodes) through one
   diurnal cycle, compressed from 24 h to [period] so that a repetition
   stays near a second; the arrival rate, and so the arrivals per 10 s
   decision epoch, is E21's. *)
let serve_scenario ~period =
  Scenario.make ~name:"serve-day"
    ~make_topo:(fun engine ->
      Topology.uniform engine ~n:5 ~speed:10.0 ~latency:0.01 ~bandwidth:1e7 ())
    ~stages:
      (Array.init 4 (fun i ->
           Stage.make ~name:(Printf.sprintf "srv%d" i) ~output_bytes:1e4 ~state_bytes:1e5
             ~work:(Variate.Constant 1.0) ()))
    ~input:(Stream_spec.make ~item_bytes:1e4 ~items:1 ())
    ~horizon:period ()

let serve_digest (r : Serve.report) =
  digest
    (Printf.sprintf "%d %d %d %h %h %h %h %h %h %d %d %s" r.Serve.arrivals r.Serve.completions
       r.Serve.violations r.Serve.p50 r.Serve.p99 r.Serve.p999 r.Serve.mean_sojourn
       r.Serve.attainment r.Serve.node_seconds r.Serve.adaptation_count
       r.Serve.policy_evaluations
       (Mapping.to_string r.Serve.final_mapping))

(* SLO-attained windows per provisioned node-second. *)
let efficiency (r : Serve.report) = r.Serve.attainment /. r.Serve.node_seconds

let drained (r : Serve.report) =
  if r.Serve.completions = r.Serve.arrivals then []
  else
    [
      Printf.sprintf "%s: %d of %d arrivals served" r.Serve.autoscaler_name r.Serve.completions
        r.Serve.arrivals;
    ]

let serve_day size ~seed =
  let period = match size with Full -> 14_400.0 | Smoke -> 1_200.0 in
  let scenario = serve_scenario ~period in
  let arrival = Arrival.diurnal ~base:1.6 ~amplitude:1.2 ~period in
  let slo = Slo.spec ~target_quantile:0.95 ~threshold:6.0 ~window:30.0 in
  let run ?instrument ~initial autoscaler =
    Serve.run ?instrument ~initial ~autoscaler ~arrival ~slo ~provision_rate:1.6 ~scenario ~seed ()
  in
  let adaptive ?instrument () = run ?instrument ~initial:`Cheapest (Autoscaler.latency_gradient ()) in
  (* The open-stream simulator alone at a fixed mapping: the same world,
     arrival draw and trace sink as the serving run (the rng splits follow
     Serve.run's order), no autoscaler. *)
  let open_sim mapping =
    let root = Rng.create seed in
    let env = Rng.split root in
    let _calibration = Rng.split root in
    let sim_rng = Rng.split root in
    let _monitor = Rng.split root in
    let arrival_rng = Rng.split root in
    let topo = Scenario.build scenario ~rng:env in
    let engine = Topology.engine topo in
    let sim =
      Skel_sim.create ~trace:(Trace.create ()) ~arrivals:`External ~rng:sim_rng ~topo
        ~stages:scenario.Scenario.stages ~mapping:(Mapping.to_array mapping)
        ~input:scenario.Scenario.input ()
    in
    let next = ref 0 in
    Arrival.schedule ~until:period ~rng:arrival_rng ~engine arrival ~f:(fun () ->
        Skel_sim.inject sim ~item:!next;
        incr next);
    Engine.run engine
  in
  let rep () =
    let r, wall = timed adaptive in
    let s, baseline = timed (fun () -> run ~initial:`Best (Autoscaler.static ())) in
    {
      wall;
      baseline;
      gain = efficiency r /. efficiency s;
      items = r.Serve.arrivals;
      digest = serve_digest r;
      problems = drained r @ drained s;
      exact =
        [
          ("virt_p99_s", r.Serve.p99);
          ("slo_attainment", r.Serve.attainment);
          ("node_seconds", r.Serve.node_seconds);
        ];
    }
  in
  let traced () =
    let instrument, events = decision_hook () in
    let profile, r =
      profiled (fun () ->
          let r = span "serve.run" (fun () -> adaptive ~instrument ()) in
          span "skel_sim.open" (fun () -> open_sim r.Serve.final_mapping);
          r)
    in
    let wall = total profile "serve.run" in
    let open_s = total profile "skel_sim.open" in
    {
      traced_wall = wall;
      split_wall = wall;
      parts = decision_parts profile @ [ ("skel_sim.open", open_s) ];
      values =
        decision_values profile ~items:r.Serve.arrivals ~events:(events ())
        @ [ ("skel_sim.open_s", open_s) ];
      profile;
    }
  in
  { rep; traced }

(* --- mc_stream ----------------------------------------------------------- *)

(* BENCH_8's 4-stage integer chain: a few ALU operations per stage, so
   ring handoff, not the stage function, dominates. *)
let mc_stage s x = ((x * 16777619) + s) land 0x3FFFFFFF
let mc_fold acc y = ((acc lxor y) * 31) land 0x3FFFFFFF
let mc_chain = Pipe.(mc_stage 0 @> mc_stage 1 @> mc_stage 2 @> last (mc_stage 3))
let mc_stages = 4
let mc_capacity = 1024
let mc_batch = 64

(* The seed offsets the input ints, so each seed folds a different stream
   through the same work. *)
let mc_input ~seed i = (i + seed) land 0x3FFFFFFF

let mc_parallel ~seed ?(gen = mc_input ~seed) ?(f = mc_fold) items =
  Skel_mc.run_fold ~capacity:mc_capacity ~batch:mc_batch mc_chain ~items ~gen ~init:0 ~f

let mc_sequential ~seed items =
  let acc = ref 0 in
  for i = 0 to items - 1 do
    acc := mc_fold !acc (Pipe.apply mc_chain (mc_input ~seed i))
  done;
  !acc

(* The simulator's claim for the same chain: [mc_stages] uniform nodes at
   the measured per-stage cost, negligible transfer costs, steady state
   reached well before 20k items. *)
let mc_des_prediction ~per_stage_seconds =
  let items = 20_000 in
  let engine = Engine.create () in
  let topo =
    Topology.uniform engine ~n:mc_stages ~speed:1.0 ~latency:1e-9 ~bandwidth:1e12 ()
  in
  let trace =
    Skel_sim.execute ~rng:(Rng.create 7) ~queue_capacity:mc_capacity ~topo
      ~stages:(Stage.balanced ~n:mc_stages ~work:(Float.max per_stage_seconds 1e-12) ())
      ~mapping:(Array.init mc_stages Fun.id)
      ~input:(Stream_spec.make ~items ~item_bytes:1.0 ())
      ()
  in
  Float.of_int items /. Trace.makespan trace

let mc_stream size ~seed =
  let items = match size with Full -> 4_000_000 | Smoke -> 100_000 in
  (* Domain spawn and join, paid once per run. *)
  ignore (mc_parallel ~seed 1);
  let rep () =
    let d, wall = timed (fun () -> mc_parallel ~seed items) in
    let expected, baseline = timed (fun () -> mc_sequential ~seed items) in
    {
      wall;
      baseline;
      gain = baseline /. wall;
      items;
      digest = string_of_int d;
      problems =
        (if d = expected then []
         else [ Printf.sprintf "digest %d, sequential fold %d" d expected ]);
      exact = [];
    }
  in
  (* The traced run stamps 1 item in 1024 at [gen] and times it to [f]:
     the stamp is written on the feeder domain before the item is pushed
     and read on the folding domain after the item is popped, so the
     rings' release/acquire ordering covers the array cell. *)
  let traced () =
    let every = 1024 in
    let stamps = Array.make ((items / every) + 1) 0.0 in
    let latency = Array.make ((items / every) + 1) 0.0 in
    let folded = ref 0 in
    let gen i =
      if i mod every = 0 then stamps.(i / every) <- now ();
      mc_input ~seed i
    in
    let f acc y =
      let k = !folded in
      incr folded;
      if k mod every = 0 then latency.(k / every) <- now () -. stamps.(k / every);
      mc_fold acc y
    in
    let profile, () =
      profiled (fun () ->
          span "skel_mc.run_fold" (fun () -> ignore (mc_parallel ~seed ~gen ~f items));
          span "skel_mc.seq_fold" (fun () -> ignore (mc_sequential ~seed items));
          span "skel_mc.spawn_join" (fun () -> ignore (mc_parallel ~seed 1)))
    in
    let wall = total profile "skel_mc.run_fold" in
    let seq = total profile "skel_mc.seq_fold" in
    let us = Array.to_list (Array.map (fun s -> s *. 1e6) latency) in
    let predicted =
      mc_des_prediction
        ~per_stage_seconds:(seq /. Float.of_int items /. Float.of_int mc_stages)
    in
    let ips = Float.of_int items /. wall in
    {
      traced_wall = wall;
      split_wall = wall;
      parts = [ ("skel_mc.seq_fold", seq); ("skel_mc.spawn_join", total profile "skel_mc.spawn_join") ];
      values =
        [
          ("skel_mc.latency_us_p50", Sample.percentile us 50.0);
          ("skel_mc.latency_us_p99", Sample.percentile us 99.0);
          ("skel_mc.items_per_s", ips);
          ("skel_mc.des_predicted_items_per_s", predicted);
          ("skel_mc.vs_des", ips /. predicted);
        ];
      profile;
    }
  in
  { rep; traced }

(* --- campaign ------------------------------------------------------------ *)

(* E6, E10 and E13 print wall-clock timings, so their bytes differ from run
   to run by design; every other experiment must repeat byte for byte. *)
let wall_clock_experiments = [ "E6"; "E10"; "E13" ]

let reproducible (r : Campaign.report) =
  List.filter_map
    (fun (o : Campaign.outcome) ->
      if List.mem o.Campaign.id wall_clock_experiments then None else Some o.Campaign.output)
    r.Campaign.outcomes

let campaign size ~seed:_ =
  let only = match size with Full -> None | Smoke -> Some [ "E1"; "E2" ] in
  let jobs = Campaign.default_jobs () in
  let run jobs = Campaign.run ~jobs ?only ~quick:true () in
  let rep () =
    let r1, baseline = timed (fun () -> run 1) in
    let rn, wall = timed (fun () -> run jobs) in
    let out1 = reproducible r1 in
    {
      wall;
      baseline;
      gain = baseline /. wall;
      items = List.length r1.Campaign.outcomes;
      digest = digest (String.concat "" out1);
      problems =
        (if out1 = reproducible rn then []
         else [ Printf.sprintf "jobs 1 and jobs %d outputs differ" jobs ]);
      exact = [];
    }
  in
  let traced () =
    let profile, (r1, rn) =
      profiled (fun () ->
          let r1 = span "runner.campaign_j1" (fun () -> run 1) in
          (r1, span "runner.campaign_jn" (fun () -> run jobs)))
    in
    let workers =
      List.filter (fun (tl : Prof.timeline) -> tl.Prof.order > 0) profile.Prof.timelines
    in
    let worker_spans = List.concat_map (fun (tl : Prof.timeline) -> tl.Prof.spans) workers in
    let seconds kind =
      List.fold_left
        (fun acc (s : Prof.span) -> if s.Prof.kind = kind then acc +. (s.Prof.t1 -. s.Prof.t0) else acc)
        0.0 worker_spans
    in
    let steals =
      List.filter (fun (s : Prof.span) -> s.Prof.kind = Prof.Steal && s.Prof.a = 1) worker_spans
    in
    let busy =
      List.concat_map (fun tl -> List.map snd (Aspipe_prof.Report.task_exclusives tl)) workers
    in
    let exp =
      List.map (fun (o : Campaign.outcome) -> (o.Campaign.id, o.Campaign.elapsed)) r1.Campaign.outcomes
    in
    {
      traced_wall = total profile "runner.campaign_jn";
      split_wall = total profile "runner.campaign_j1";
      parts = List.map (fun (id, s) -> ("exp." ^ id, s)) exp;
      values =
        [
          ("runner.busy_s", List.fold_left ( +. ) 0.0 busy);
          ("runner.idle_s", seconds Prof.Worker_idle);
          ("runner.await_s", seconds Prof.Await_wait);
          ("runner.steals", Float.of_int (List.length steals));
          ("runner.serial_inflation", rn.Campaign.serial_seconds /. r1.Campaign.serial_seconds);
          ( "runner.critical_task_s",
            List.fold_left (fun acc (o : Campaign.outcome) -> Float.max acc o.Campaign.elapsed) 0.0
              rn.Campaign.outcomes );
        ]
        @ List.map (fun (id, s) -> ("exp." ^ id ^ "_s", s)) exp;
      profile;
    }
  in
  { rep; traced }

(* Why each workload was chosen is in BENCHMARK.json and README.md. *)
let all =
  [
    { name = "adaptive_search"; prepare = adaptive_search };
    { name = "serve_day"; prepare = serve_day };
    { name = "mc_stream"; prepare = mc_stream };
    { name = "campaign"; prepare = campaign };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
