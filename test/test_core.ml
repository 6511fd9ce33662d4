(* Tests for the adaptive pattern itself: calibration, migration costs,
   policies, scenarios, the engine and the baselines. The headline
   behavioural claims of the reproduction — "the adaptive pipeline recovers
   from a load step that a static schedule cannot" — are asserted here at
   reduced scale. *)

module Rng = Aspipe_util.Rng
module Variate = Aspipe_util.Variate
module Loadgen = Aspipe_grid.Loadgen
module Monitor = Aspipe_grid.Monitor
module Topology = Aspipe_grid.Topology
module Node = Aspipe_grid.Node
module Trace = Aspipe_grid.Trace
module Stage = Aspipe_skel.Stage
module Stream_spec = Aspipe_skel.Stream_spec
module Mapping = Aspipe_model.Mapping
module Costspec = Aspipe_model.Costspec
module Predictor = Aspipe_model.Predictor
module Search = Aspipe_model.Search
module Calibration = Aspipe_core.Calibration
module Migration = Aspipe_core.Migration
module Policy = Aspipe_core.Policy
module Scenario = Aspipe_core.Scenario
module Adaptive = Aspipe_core.Adaptive
module Baselines = Aspipe_core.Baselines

let check_float = Alcotest.(check (float 1e-9))
let check_close ?(eps = 1e-6) msg a b = Alcotest.(check (float eps)) msg a b

(* ----------------------------------------------------------- Calibration *)

let test_calibration_exact_for_constant_work () =
  let stages = Stage.balanced ~n:3 ~work:2.0 () in
  let c = Calibration.run ~probes:3 ~measurement_noise:0.0 ~rng:(Rng.create 1) stages in
  Array.iter (fun w -> check_float "constant work measured exactly" 2.0 w)
    (Calibration.work_vector c);
  Array.iter (fun e -> check_float "zero relative error" 0.0 e)
    (Calibration.relative_error c stages)

let test_calibration_converges_with_probes () =
  let stages = [| Stage.make ~work:(Variate.Gamma { shape = 4.0; scale = 0.5 }) () |] in
  let c = Calibration.run ~probes:400 ~measurement_noise:0.01 ~rng:(Rng.create 2) stages in
  check_close ~eps:0.15 "many probes approach the true mean 2.0" 2.0
    (Calibration.work_vector c).(0);
  (* The sample count and the spread show in the printed estimate:
     "stage 0: work ≈ <mean> ± <stddev> (<probes> probes)". *)
  let spread, samples =
    Scanf.sscanf (Format.asprintf "%a" Calibration.pp c) "stage 0: work ≈ %_f ± %f (%d probes)"
      (fun spread samples -> (spread, samples))
  in
  Alcotest.(check int) "sample count recorded" 400 samples;
  Alcotest.(check bool) "spread recorded" true (spread > 0.0)

let test_calibration_noise_bounded () =
  let stages = Stage.balanced ~n:2 ~work:1.0 () in
  let c = Calibration.run ~probes:100 ~measurement_noise:0.05 ~rng:(Rng.create 3) stages in
  let errors = Calibration.relative_error c stages in
  Array.iter (fun e -> Alcotest.(check bool) "within a few percent" true (e < 0.05)) errors

let test_calibration_validation () =
  let stages = Stage.balanced ~n:1 ~work:1.0 () in
  Alcotest.check_raises "0 probes" (Invalid_argument "Calibration.run: need at least one probe")
    (fun () -> ignore (Calibration.run ~probes:0 ~rng:(Rng.create 1) stages));
  let c = Calibration.run ~rng:(Rng.create 1) stages in
  Alcotest.(check bool) "pp renders" true
    (String.length (Format.asprintf "%a" Calibration.pp c) > 0)

(* ------------------------------------------------------------- Migration *)

let migration_spec () =
  {
    Costspec.stage_work = [| 1.0; 1.0; 1.0 |];
    node_rates = [| 10.0; 10.0 |];
    item_bytes = 1e3;
    output_bytes = Array.make 3 1e3;
    latency = [| [| 1e-4; 0.1 |]; [| 0.1; 1e-4 |] |];
    bandwidth = [| [| 1e9; 1e6 |]; [| 1e6; 1e9 |] |];
    user_latency = [| 1e-4; 1e-4 |];
    user_bandwidth = [| 1e9; 1e9 |];
  }

(* Which stages move shows in the stall: only stage 2 carries state, so the
   stall is its transfer exactly when stage 2 changes processor. *)
let test_migration_stages_moving () =
  let spec = migration_spec () in
  let stage state_bytes = Stage.make ~work:(Variate.Constant 1.0) ~state_bytes () in
  let stages = [| stage 0.0; stage 0.0; stage 1e6 |] in
  let model = { Migration.restart_penalty = 0.0 } in
  let stall target =
    Migration.stall_seconds model ~spec ~stages
      ~current:(Mapping.of_array ~processors:2 [| 0; 0; 1 |])
      ~target:(Mapping.of_array ~processors:2 target)
  in
  check_close ~eps:1e-9 "only stateless stage 1 moves: latency alone" 0.1
    (stall [| 0; 1; 1 |]);
  check_close ~eps:1e-9 "stages 1 and 2 move" 1.1 (stall [| 0; 1; 0 |]);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Migration.stages_moving: mapping lengths differ") (fun () ->
      ignore (stall [| 0 |]))

let test_migration_stall () =
  let spec = migration_spec () in
  let stages = Stage_gen.balanced ~n:3 ~work:1.0 ~state_bytes:1e6 () in
  let current = Mapping.of_array ~processors:2 [| 0; 0; 1 |] in
  let model = { Migration.restart_penalty = 0.5 } in
  check_float "no move, no stall" 0.0
    (Migration.stall_seconds model ~spec ~stages ~current ~target:current);
  let target = Mapping.of_array ~processors:2 [| 0; 1; 1 |] in
  (* One stage moves 1e6 bytes over a 1e6 B/s, 0.1 s link: 1.1 s + 0.5. *)
  check_close ~eps:1e-9 "stall = transfer + restart" 1.6
    (Migration.stall_seconds model ~spec ~stages ~current ~target);
  (* Two stages moving concurrently: still the max, not the sum. *)
  let target2 = Mapping.of_array ~processors:2 [| 1; 1; 0 |] in
  check_close ~eps:1e-9 "parallel moves cost the max" 1.6
    (Migration.stall_seconds model ~spec ~stages ~current ~target:target2)

(* ---------------------------------------------------------------- Policy *)

(* A hand-built context over a 2-stage, 2-node world where node 1 has become
   very slow, so moving everything to node 0 is clearly right. *)
let make_context ?(observed = 10.0) ?(adopted = 10.0) ?(items_remaining = 1000)
    ?(stall = 0.1) ?(time = 100.0) () =
  let spec =
    {
      Costspec.stage_work = [| 1.0; 1.0 |];
      node_rates = [| 10.0; 0.5 |];
      item_bytes = 1e3;
      output_bytes = Array.make 2 1e3;
      latency = [| [| 1e-4; 0.01 |]; [| 0.01; 1e-4 |] |];
      bandwidth = [| [| 1e9; 1e7 |]; [| 1e7; 1e9 |] |];
      user_latency = [| 1e-4; 1e-4 |];
      user_bandwidth = [| 1e9; 1e9 |];
    }
  in
  let predictor = Predictor.make spec in
  let current = Mapping.of_array ~processors:2 [| 0; 1 |] in
  {
    Policy.time;
    current;
    predictor;
    observed_throughput = observed;
    adopted_throughput = adopted;
    items_remaining;
    migration_stall = (fun _ -> stall);
    choose_best = (fun () -> Predictor.choose predictor);
    serving = None;
  }

let test_policy_never () =
  let policy = Policy.never () in
  Alcotest.(check string) "name" "never" (Policy.name policy);
  (match Policy.decide policy (make_context ()) with
  | Policy.Keep -> ()
  | Policy.Remap _ -> Alcotest.fail "never must keep")

let test_policy_periodic_remaps_on_gain () =
  let policy = Policy.periodic_best () in
  match Policy.decide policy (make_context ()) with
  | Policy.Remap m ->
      Alcotest.(check bool) "moves the stage off the dying node" true
        (Array.for_all (fun p -> p = 0) (Mapping.to_array m))
  | Policy.Keep -> Alcotest.fail "expected a remap"

let test_policy_periodic_respects_migration_cost () =
  let policy = Policy.periodic_best () in
  (* Two items left: nothing can amortize a 1000 s stall. *)
  match Policy.decide policy (make_context ~items_remaining:2 ~stall:1000.0 ()) with
  | Policy.Keep -> ()
  | Policy.Remap _ -> Alcotest.fail "must not migrate when it cannot amortize"

let test_policy_threshold_requires_degradation () =
  let policy = Policy.threshold ~drop:0.25 () in
  (* Observed right at expectation: no search, no remap. *)
  (match Policy.decide policy (make_context ~observed:10.0 ~adopted:10.0 ()) with
  | Policy.Keep -> ()
  | Policy.Remap _ -> Alcotest.fail "no degradation, no remap");
  (* Observed collapsed: remap. *)
  match Policy.decide policy (make_context ~observed:2.0 ~adopted:10.0 ()) with
  | Policy.Remap _ -> ()
  | Policy.Keep -> Alcotest.fail "expected remap on degradation"

let test_policy_threshold_cooldown () =
  let policy = Policy.threshold ~drop:0.25 ~cooldown:30.0 () in
  (match Policy.decide policy (make_context ~observed:2.0 ~adopted:10.0 ~time:100.0 ()) with
  | Policy.Remap _ -> ()
  | Policy.Keep -> Alcotest.fail "first trigger should fire");
  (* 10 s later, still inside the cooldown window. *)
  (match Policy.decide policy (make_context ~observed:2.0 ~adopted:10.0 ~time:110.0 ()) with
  | Policy.Keep -> ()
  | Policy.Remap _ -> Alcotest.fail "cooldown must suppress");
  (* 40 s later, outside the cooldown. *)
  match Policy.decide policy (make_context ~observed:2.0 ~adopted:10.0 ~time:140.0 ()) with
  | Policy.Remap _ -> ()
  | Policy.Keep -> Alcotest.fail "cooldown expired, should fire again"

let test_policy_always_best_small_gains () =
  let policy = Policy.always_best () in
  match Policy.decide policy (make_context ()) with
  | Policy.Remap _ -> ()
  | Policy.Keep -> Alcotest.fail "always_best should chase the gain"

(* The gain test as it stood before the predictor's throughput bound could
   settle a Keep: always search, then test the winner. The bounded policies
   must decide exactly as this does. *)
let decide_ref ~min_gain (ctx : Policy.context) =
  let result = ctx.Policy.choose_best () in
  let candidate = result.Search.mapping in
  if Mapping.equal candidate ctx.Policy.current then Policy.Keep
  else begin
    let current_rate = Predictor.evaluate ctx.Policy.predictor ctx.Policy.current in
    let candidate_rate = result.Search.score in
    if current_rate <= 0.0 then Policy.Remap candidate
    else begin
      let gain = (candidate_rate -. current_rate) /. current_rate in
      if gain <= min_gain then Policy.Keep
      else begin
        let remaining = Float.of_int ctx.Policy.items_remaining in
        let saved = remaining *. ((1.0 /. current_rate) -. (1.0 /. candidate_rate)) in
        if saved > ctx.Policy.migration_stall candidate then Policy.Remap candidate
        else Policy.Keep
      end
    end
  end

let same_decision a b =
  match (a, b) with
  | Policy.Keep, Policy.Keep -> true
  | Policy.Remap x, Policy.Remap y -> Mapping.equal x y
  | _ -> false

(* A context over [spec] whose [choose_best] counts its calls in [calls]. *)
let bound_context ?(calls = ref 0) ~items_remaining ~stall spec current =
  let predictor = Predictor.make spec in
  {
    Policy.time = 0.0;
    current;
    predictor;
    observed_throughput = 0.0;
    adopted_throughput = 0.0;
    items_remaining;
    migration_stall = (fun _ -> stall);
    choose_best =
      (fun () ->
        incr calls;
        Predictor.choose ~incumbent:current predictor);
    serving = None;
  }

let test_policy_bound_keeps_decisions =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"bounded periodic_best and always_best decide as the full search"
       QCheck2.Gen.(
         let* spec = Spec_gen.bound_spec in
         let* at_best = bool in
         let* seed = int_range 0 10_000 in
         let* items_remaining = oneofl [ 1; 50; 10_000 ] in
         let* stall = oneofl [ 0.0; 1.0; 1e3 ] in
         return (spec, at_best, seed, items_remaining, stall))
       (fun (spec, at_best, seed, items_remaining, stall) ->
         let stages = Costspec.stages spec and processors = Costspec.processors spec in
         let current =
           if at_best then (Predictor.choose (Predictor.make spec)).Search.mapping
           else
             let rng = Rng.create seed in
             Mapping.of_array ~processors (Array.init stages (fun _ -> Rng_ref.below rng processors))
         in
         let ctx = bound_context ~items_remaining ~stall spec current in
         (* A backlog above queue_length's high mark sends it down the
            serving triggers' scale-up path, the third gain in use. *)
         let backlogged =
           {
             ctx with
             Policy.serving =
               Some
                 {
                   Policy.backlog = 65;
                   arrival_rate = 0.0;
                   p99_sojourn = nan;
                   sojourn_slope = 0.0;
                   slo_threshold = 1.0;
                   choose_cheapest = (fun ~headroom:_ -> None);
                 };
           }
         in
         same_decision (Policy.decide (Policy.periodic_best ()) ctx) (decide_ref ~min_gain:0.1 ctx)
         && same_decision (Policy.decide (Policy.always_best ()) ctx) (decide_ref ~min_gain:0.01 ctx)
         && same_decision
              (Policy.decide (Policy.queue_length ()) backlogged)
              (decide_ref ~min_gain:0.02 backlogged)))

(* Two unit stages on free links (no latency, no bytes) over nodes of rates
   [r0 > r1 > r0 / 2]: the best mapping puts one stage on each node and
   scores [r1], exactly the bound, and both stages on node 0 score
   [c = r0 / 2]. The rate pairs put the float gain [(r1 - c) / c] at
   periodic_best's [min_gain] of 0.1 and one ulp either side of it: at or
   below it the search's winner is kept, one ulp above it it is taken. In
   that last pair [c *. (1 +. 0.1)] rounds above [r1], so without the
   margin the bound would wrongly settle the decision. *)
let test_policy_bound_boundary () =
  let min_gain = 0.1 in
  List.iter
    (fun (r0, r1, expected_gain, what, remap) ->
      let spec =
        {
          Costspec.stage_work = [| 1.0; 1.0 |];
          node_rates = [| r0; r1 |];
          item_bytes = 0.0;
          output_bytes = [| 0.0; 0.0 |];
          latency = Array.make_matrix 2 2 0.0;
          bandwidth = Array.make_matrix 2 2 1e7;
          user_latency = [| 0.0; 0.0 |];
          user_bandwidth = [| 1e7; 1e7 |];
        }
      in
      let current = Mapping.of_array ~processors:2 [| 0; 0 |] in
      let predictor = Predictor.make spec in
      let best = (Predictor.choose predictor).Search.score in
      let label = Printf.sprintf "rates %g/%g" r0 r1 in
      Alcotest.(check bool) (label ^ ": bound attained") true (Predictor.upper_bound predictor = best);
      let c = Predictor.evaluate predictor current in
      Alcotest.(check bool) (label ^ ": gain " ^ what) true ((best -. c) /. c = expected_gain);
      if remap then
        Alcotest.(check bool) (label ^ ": the margin decides") true (best < c *. (1.0 +. min_gain));
      let ctx = bound_context ~items_remaining:10_000 ~stall:0.0 spec current in
      let got = Policy.decide (Policy.periodic_best ()) ctx in
      Alcotest.(check bool)
        (Printf.sprintf "%s, gain %s: same as the full search" label what)
        true
        (same_decision got (decide_ref ~min_gain ctx));
      Alcotest.(check bool)
        (Printf.sprintf "%s, gain %s: remaps" label what)
        remap
        (match got with Policy.Remap _ -> true | Policy.Keep -> false))
    [ (6.25, 3.4375, min_gain, "= min_gain", false);
      (6.2, 3.41, Float.succ min_gain, "= succ min_gain", true);
      (6.14, 3.377, Float.pred min_gain, "= pred min_gain", false) ]

(* The forecast-like 9-stage x 4-node spec of test_model's incumbent test:
   the bound sits within 1 % of the best score, so with the best mapping
   running neither periodic_best nor always_best searches. With all nine
   stages on the loaded node, both search once and take the best. *)
let test_policy_bound_witness () =
  let np = 4 and ns = 9 in
  let spec =
    {
      Costspec.stage_work = Array.make ns 1.0;
      node_rates = [| 2.4; 10.02; 9.96; 8.03 |];
      item_bytes = 1e4;
      output_bytes = Array.make ns 1e4;
      latency =
        Array.init np (fun src ->
            Array.init np (fun dst -> 0.01 +. (1e-4 *. Float.of_int ((src * np) + dst))));
      bandwidth = Array.init np (fun _ -> Array.make np 1e7);
      user_latency = Array.init np (fun p -> 0.01 +. (2e-4 *. Float.of_int p));
      user_bandwidth = Array.make np 1e7;
    }
  in
  let best = Predictor.choose (Predictor.make spec) in
  let bound = Predictor.upper_bound (Predictor.make spec) in
  Alcotest.(check bool)
    (Printf.sprintf "bound %.6f within [score, 1.01 x score %.6f)" bound best.Search.score)
    true
    (bound >= best.Search.score && bound < 1.01 *. best.Search.score);
  let decide policy current =
    let calls = ref 0 in
    let ctx = bound_context ~calls ~items_remaining:10_000 ~stall:1.0 spec current in
    let decision = Policy.decide policy ctx in
    (decision, !calls)
  in
  let all_on_loaded = Mapping.of_array ~processors:np (Array.make ns 0) in
  List.iter
    (fun (name, policy) ->
      (match decide (policy ()) best.Search.mapping with
      | Policy.Keep, calls -> Alcotest.(check int) (name ^ " at the best: searches") 0 calls
      | Policy.Remap _, _ -> Alcotest.failf "%s left the best mapping" name);
      match decide (policy ()) all_on_loaded with
      | Policy.Remap m, calls ->
          Alcotest.(check int) (name ^ " on the loaded node: searches") 1 calls;
          Alcotest.(check string) (name ^ " remaps to the best")
            (Mapping.to_string best.Search.mapping) (Mapping.to_string m)
      | Policy.Keep, _ -> Alcotest.failf "%s kept all stages on the loaded node" name)
    [ ("periodic_best", fun () -> Policy.periodic_best ()); ("always_best", Policy.always_best) ]

(* -------------------------------------------------------------- Scenario *)

let small_scenario ?(loads = []) ?(items = 40) () =
  Scenario.make ~name:"test"
    ~make_topo:(fun engine ->
      Topology.uniform engine ~n:3 ~speed:10.0 ~latency:1e-3 ~bandwidth:1e8 ())
    ~loads
    ~stages:(Stage_gen.balanced ~n:3 ~work:1.0 ~state_bytes:1e4 ())
    ~input:(Stream_spec.make ~items ~item_bytes:1e3 ())
    ~horizon:1e4 ()

let test_scenario_build_applies_loads () =
  let scenario = small_scenario ~loads:[ (1, Loadgen.Constant 0.3) ] () in
  let topo = Scenario.build scenario ~rng:(Rng.create 1) in
  check_float "load applied at build" 0.3 (Node.availability (Topology.node topo 1));
  check_float "other nodes untouched" 1.0 (Node.availability (Topology.node topo 0));
  Alcotest.(check int) "stage count" 3 (Scenario.stage_count scenario)

let test_scenario_validation () =
  Alcotest.check_raises "empty pipeline" (Invalid_argument "Scenario.make: empty pipeline")
    (fun () ->
      ignore
        (Scenario.make ~name:"x"
           ~make_topo:(fun engine ->
             Topology.uniform engine ~n:1 ~speed:1.0 ~latency:0.1 ~bandwidth:1.0 ())
           ~stages:[||]
           ~input:(Stream_spec.make ~items:1 ())
           ()))

(* -------------------------------------------------------------- Adaptive *)

let test_adaptive_completes_static_world () =
  let scenario = small_scenario () in
  (* The run is only a few seconds of virtual time; monitor densely so the
     report's sampling counters are exercised. *)
  let config =
    { Adaptive.default_config with monitor_every = 0.25; evaluate_every = 0.5 }
  in
  let report = Adaptive.run ~config ~scenario ~seed:5 () in
  Alcotest.(check int) "all items flow through" 40
    (Trace.items_completed report.Adaptive.trace);
  Alcotest.(check bool) "positive makespan" true (report.Adaptive.makespan > 0.0);
  Alcotest.(check bool) "monitors ran" true (report.Adaptive.monitor_samples > 0);
  Alcotest.(check string) "scenario name carried" "test" report.Adaptive.scenario_name

let test_adaptive_deterministic () =
  let scenario = small_scenario () in
  let a = Adaptive.run ~scenario ~seed:9 () in
  let b = Adaptive.run ~scenario ~seed:9 () in
  check_float "same seed, same makespan" a.Adaptive.makespan b.Adaptive.makespan;
  Alcotest.(check int) "same adaptation count" a.Adaptive.adaptation_count
    b.Adaptive.adaptation_count

let test_adaptive_seed_changes_world () =
  (* Different seeds give different monitor noise; the run still completes. *)
  let scenario = small_scenario () in
  let a = Adaptive.run ~scenario ~seed:1 () in
  Alcotest.(check int) "completes under any seed" 40 (Trace.items_completed a.Adaptive.trace)

(* The headline behaviour: a mid-run availability collapse on the node the
   schedule leans on. Static bleeds for the rest of the run; adaptive
   recovers. (Reduced-scale version of experiment E3.) *)
let step_scenario () =
  let items = 400 in
  Scenario.make ~name:"step"
    ~make_topo:(fun engine ->
      Topology.heterogeneous engine ~speeds:[| 12.0; 10.0; 10.0 |] ~latency:0.01 ~bandwidth:1e7 ())
    ~loads:[ (0, Loadgen.Step { at = 30.0; level = 0.15 }) ]
    ~stages:(Stage_gen.balanced ~n:4 ~work:1.0 ~state_bytes:1e5 ())
    ~input:(Stream_spec.make ~arrival:(Stream_spec.Spaced 0.25) ~items ~item_bytes:1e4 ())
    ~horizon:1e4 ()

let test_adaptive_beats_static_after_step () =
  let scenario = step_scenario () in
  let static = Baselines.static_model_best ~scenario ~seed:7 () in
  let adaptive = Adaptive.run ~scenario ~seed:7 () in
  Alcotest.(check bool) "at least one adaptation" true (adaptive.Adaptive.adaptation_count >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "adaptive (%.1f) at least 1.5x faster than static (%.1f)"
       adaptive.Adaptive.makespan static.Baselines.makespan)
    true
    (static.Baselines.makespan > 1.5 *. adaptive.Adaptive.makespan);
  (* The adaptation must be recorded in the trace with its context. *)
  match Trace.adaptations adaptive.Adaptive.trace with
  | [] -> Alcotest.fail "adaptation not recorded"
  | a :: _ ->
      Alcotest.(check bool) "recorded after the step" true (a.Trace.at >= 30.0);
      Alcotest.(check bool) "positive predicted gain" true (a.Trace.predicted_gain > 0.0)

let test_adaptive_never_policy_stays_put () =
  let scenario = step_scenario () in
  let config = { Adaptive.default_config with policy = (fun () -> Policy.never ()) } in
  let report = Adaptive.run ~config ~scenario ~seed:7 () in
  Alcotest.(check int) "no adaptations under never" 0 report.Adaptive.adaptation_count;
  Alcotest.(check bool) "mapping unchanged" true
    (Mapping.equal report.Adaptive.initial_mapping report.Adaptive.final_mapping)

let test_adaptive_blind_start_discovers_load () =
  (* Node 0 is secretly at 20% from the start; a blind engine must discover
     it and end with a mapping that avoids node 0. *)
  let scenario =
    Scenario.make ~name:"hidden"
      ~make_topo:(fun engine ->
        Topology.uniform engine ~n:3 ~speed:10.0 ~latency:1e-3 ~bandwidth:1e8 ())
      ~loads:[ (0, Loadgen.Constant 0.2) ]
      ~stages:(Stage_gen.balanced ~n:3 ~work:1.0 ~state_bytes:1e4 ())
      ~input:(Stream_spec.make ~arrival:(Stream_spec.Spaced 0.3) ~items:300 ~item_bytes:1e3 ())
      ~horizon:1e4 ()
  in
  let config =
    {
      Adaptive.default_config with
      initial_resource_reading = false;
      policy = (fun () -> Policy.periodic_best ());
    }
  in
  let report = Adaptive.run ~config ~scenario ~seed:11 () in
  Alcotest.(check bool) "adapted at least once" true (report.Adaptive.adaptation_count >= 1);
  Alcotest.(check bool) "final mapping avoids the loaded node" true
    (Array.for_all (fun p -> p <> 0) (Mapping.to_array report.Adaptive.final_mapping))



let test_adaptive_colocates_under_congestion () =
  (* E15 at reduced scale: all routes congest; the engine must end on fewer
     distinct nodes than it started with and beat the static schedule. *)
  let stages =
    Array.init 4 (fun i ->
        Stage.make ~name:(Printf.sprintf "n%d" i) ~output_bytes:5e5 ~state_bytes:1e6
          ~work:(Aspipe_util.Variate.Constant 1.0) ())
  in
  let scenario =
    Scenario.make ~name:"congestion-test"
      ~make_topo:(fun engine ->
        Topology.heterogeneous engine ~speeds:[| 12.0; 10.0; 10.0 |] ~latency:0.01
          ~bandwidth:1e7 ())
      ~net_loads:
        (List.map
           (fun pair -> (pair, Loadgen.Step { at = 25.0; level = 0.1 }))
           [ (0, 1); (0, 2); (1, 2) ])
      ~stages
      ~input:(Stream_spec.make ~arrival:(Stream_spec.Spaced 0.3) ~items:300 ~item_bytes:1e4 ())
      ~horizon:1e4 ()
  in
  let static = Baselines.static_model_best ~scenario ~seed:15 () in
  let adaptive = Adaptive.run ~scenario ~seed:15 () in
  let distinct m = List.length (List.sort_uniq compare (Array.to_list (Mapping.to_array m))) in
  Alcotest.(check bool) "adapted" true (adaptive.Adaptive.adaptation_count >= 1);
  Alcotest.(check bool) "colocated onto fewer nodes" true
    (distinct adaptive.Adaptive.final_mapping < distinct adaptive.Adaptive.initial_mapping);
  Alcotest.(check bool)
    (Printf.sprintf "adaptive (%.1f) beats static (%.1f)" adaptive.Adaptive.makespan
       static.Baselines.makespan)
    true
    (adaptive.Adaptive.makespan < static.Baselines.makespan)

(* ------------------------------- the adaptive farm: round-robin Adaptive_repl *)

module Adaptive_repl = Aspipe_core.Adaptive_repl
module Repl_sim = Aspipe_skel.Repl_sim

let farm_config = { Adaptive_repl.default_config with dispatch = Repl_sim.Round_robin }

let farm_scenario ?(loads = []) ?(items = 200) () =
  Scenario.make ~name:"farm-test"
    ~make_topo:(fun engine ->
      Topology.heterogeneous engine ~speeds:[| 14.0; 12.0; 10.0; 6.0 |] ~latency:1e-3
        ~bandwidth:1e8 ())
    ~loads
    ~stages:
      [| Stage.make ~name:"task" ~output_bytes:1e3 ~state_bytes:0.0
           ~work:(Aspipe_util.Variate.Constant 1.0) () |]
    ~input:(Stream_spec.make ~arrival:(Stream_spec.Spaced 0.05) ~items ~item_bytes:1e3 ())
    ~horizon:1e4 ()

let test_adaptive_farm_requires_one_stage () =
  let bad =
    Scenario.make ~name:"bad"
      ~make_topo:(fun engine ->
        Topology.uniform engine ~n:2 ~speed:10.0 ~latency:1e-3 ~bandwidth:1e8 ())
      ~stages:(Stage.balanced ~n:2 ~work:1.0 ())
      ~input:(Stream_spec.make ~items:1 ())
      ()
  in
  Alcotest.check_raises "multi-stage round-robin rejected"
    (Invalid_argument "Adaptive_repl.run: round-robin dispatch needs exactly one (farmed) stage")
    (fun () -> ignore (Adaptive_repl.run ~config:farm_config ~scenario:bad ~seed:1 ()))

let test_adaptive_farm_static_completes () =
  let config = { farm_config with adapt = false } in
  let report = Adaptive_repl.run ~config ~scenario:(farm_scenario ()) ~seed:2 () in
  Alcotest.(check int) "all items emitted" 200
    (Trace.items_completed report.Adaptive_repl.trace);
  Alcotest.(check int) "no reconfigurations when static" 0
    report.Adaptive_repl.reconfigurations;
  (* The initial reading sees the heterogeneous speeds: the model drops the
     slow node 3 from the round-robin deal. *)
  Alcotest.(check (array (list int))) "slow node excluded" [| [ 0; 1; 2 ] |]
    report.Adaptive_repl.initial_replicas

let test_adaptive_farm_evicts_degraded_worker () =
  let scenario =
    farm_scenario ~items:400 ~loads:[ (1, Loadgen.Step { at = 5.0; level = 0.1 }) ] ()
  in
  let static =
    Adaptive_repl.run ~config:{ farm_config with adapt = false } ~scenario ~seed:3 ()
  in
  let adaptive = Adaptive_repl.run ~config:farm_config ~scenario ~seed:3 () in
  Alcotest.(check bool) "reconfigured at least once" true
    (adaptive.Adaptive_repl.reconfigurations >= 1);
  Alcotest.(check bool) "degraded worker evicted" true
    (not (List.mem 1 adaptive.Adaptive_repl.final_replicas.(0)));
  Alcotest.(check bool)
    (Printf.sprintf "adaptive (%.1f) faster than static (%.1f)"
       adaptive.Adaptive_repl.makespan static.Adaptive_repl.makespan)
    true
    (adaptive.Adaptive_repl.makespan < static.Adaptive_repl.makespan);
  Alcotest.(check bool) "history recorded" true
    (List.length adaptive.Adaptive_repl.history = adaptive.Adaptive_repl.reconfigurations)

let test_adaptive_farm_deterministic () =
  let scenario = farm_scenario () in
  let a = Adaptive_repl.run ~config:farm_config ~scenario ~seed:5 () in
  let b = Adaptive_repl.run ~config:farm_config ~scenario ~seed:5 () in
  check_float "same seed, same makespan" a.Adaptive_repl.makespan b.Adaptive_repl.makespan

let test_adaptive_with_ctmc_evaluator () =
  (* The exact evaluator on a small instance: slower, same decisions class. *)
  let scenario = small_scenario () in
  let config =
    { Adaptive.default_config with evaluator = Predictor.Ctmc; monitor_every = 0.5;
      evaluate_every = 1.0 }
  in
  let report = Adaptive.run ~config ~scenario ~seed:13 () in
  Alcotest.(check int) "completes under the ctmc evaluator" 40
    (Trace.items_completed report.Adaptive.trace)

let test_adaptive_conservation_under_dynamics =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:10 ~name:"adaptive engine never loses items"
       QCheck2.Gen.(int_range 0 1000)
       (fun seed ->
         let scenario =
           Scenario.make ~name:"prop"
             ~make_topo:(fun engine ->
               Topology.uniform engine ~n:3 ~speed:10.0 ~latency:1e-3 ~bandwidth:1e8 ())
             ~loads:
               [
                 (0, Loadgen.Markov_on_off
                       { to_busy_rate = 0.2; to_free_rate = 0.2; busy_level = 0.2 });
                 (2, Loadgen.Random_walk { every = 1.0; sigma = 0.2; lo = 0.1; hi = 1.0 });
               ]
             ~stages:(Stage_gen.balanced ~n:3 ~work:1.0 ~state_bytes:1e4 ())
             ~input:
               (Stream_spec.make ~arrival:(Stream_spec.Spaced 0.4) ~items:60 ~item_bytes:1e3 ())
             ~horizon:1e4 ()
         in
         let report = Adaptive.run ~scenario ~seed () in
         Trace.items_completed report.Adaptive.trace = 60
         && Array.map fst (Trace.completions report.Adaptive.trace) = Array.init 60 Fun.id))


(* The report's trace is written directly by the simulator and the
   engine; a trace subscribed through [~instrument] rebuilds the same
   records from the bus. Both must agree on every summary, committed
   adaptations included, on a load step and on a crash answered by
   failover. *)
let test_adaptive_trace_matches_subscribed () =
  let check name scenario =
    let subscribed = Trace.create () in
    let report =
      Adaptive.run ~instrument:(Trace.subscribe subscribed) ~scenario ~seed:7 ()
    in
    Alcotest.(check bool) (name ^ ": adapts") true
      (report.Adaptive.adaptation_count + report.Adaptive.failover_count >= 1);
    match Trace_diff.differs report.Adaptive.trace subscribed with
    | Some what -> Alcotest.failf "%s: %s differ" name what
    | None -> ()
  in
  check "load step" (step_scenario ());
  check "crash"
    (Scenario.make ~name:"crash"
       ~make_topo:(fun engine ->
         Topology.uniform engine ~n:4 ~speed:10.0 ~latency:0.01 ~bandwidth:1e7 ())
       ~faults:(Aspipe_fault.Fault.parse_spec "0:crash@20;1:crash@20")
       ~stages:(Stage_gen.balanced ~n:3 ~work:1.0 ~state_bytes:1e4 ())
       ~input:(Stream_spec.make ~arrival:(Stream_spec.Spaced 0.3) ~items:150 ~item_bytes:1e3 ())
       ~horizon:1e4 ())

(* --------------------------------------------------------- Adaptive_repl *)

let repl_scenario ?(loads = []) ?(items = 300) () =
  Scenario.make ~name:"repl-test"
    ~make_topo:(fun engine ->
      Topology.uniform engine ~n:6 ~speed:10.0 ~latency:1e-3 ~bandwidth:1e8 ())
    ~loads
    ~stages:(Aspipe_workload.Synthetic.hot_stage ~n:3 ~hot:1 ~factor:3.0 ())
    ~input:(Stream_spec.make ~arrival:(Stream_spec.Spaced 0.105) ~items ~item_bytes:1e3 ())
    ~horizon:1e4 ()

let test_adaptive_repl_initial_allocation () =
  let config = { Adaptive_repl.default_config with adapt = false } in
  let report = Adaptive_repl.run ~config ~scenario:(repl_scenario ()) ~seed:4 () in
  Alcotest.(check int) "all items" 300 (Trace.items_completed report.Adaptive_repl.trace);
  (* Budget 6 over 3 stages with a 3x hot stage: the hot stage gets the
     extra replicas. *)
  Alcotest.(check bool) "hot stage replicated" true
    (List.length report.Adaptive_repl.initial_replicas.(1) >= 3);
  Alcotest.(check int) "no reconfiguration when static" 0
    report.Adaptive_repl.reconfigurations

let test_adaptive_repl_routes_around_collapse () =
  (* Node 1 carries a hot-stage replica; with arrivals near capacity its
     collapse is binding, so the engine must re-shape the replica sets. *)
  let scenario =
    repl_scenario ~items:400
      ~loads:[ (1, Loadgen.Step { at = 8.0; level = 0.05 }) ]
      ()
  in
  let static =
    Adaptive_repl.run ~config:{ Adaptive_repl.default_config with adapt = false } ~scenario
      ~seed:5 ()
  in
  let adaptive = Adaptive_repl.run ~scenario ~seed:5 () in
  Alcotest.(check bool) "reconfigured" true (adaptive.Adaptive_repl.reconfigurations >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "adaptive (%.1f) beats static (%.1f)" adaptive.Adaptive_repl.makespan
       static.Adaptive_repl.makespan)
    true
    (adaptive.Adaptive_repl.makespan < static.Adaptive_repl.makespan);
  Alcotest.(check int) "no items lost" 400 (Trace.items_completed adaptive.Adaptive_repl.trace);
  Alcotest.(check int) "one history entry per reconfiguration"
    adaptive.Adaptive_repl.reconfigurations (List.length adaptive.Adaptive_repl.history)

let test_adaptive_repl_needs_enough_nodes () =
  let scenario =
    Scenario.make ~name:"tiny"
      ~make_topo:(fun engine ->
        Topology.uniform engine ~n:2 ~speed:10.0 ~latency:1e-3 ~bandwidth:1e8 ())
      ~stages:(Stage.balanced ~n:3 ~work:1.0 ())
      ~input:(Stream_spec.make ~items:1 ())
      ()
  in
  Alcotest.check_raises "too few nodes"
    (Invalid_argument "Adaptive_repl.run: need at least one node per stage") (fun () ->
      ignore (Adaptive_repl.run ~scenario ~seed:1 ()))


let test_adaptive_farm_least_loaded_mode () =
  let config = { Adaptive_repl.default_config with adapt = false } in
  let report = Adaptive_repl.run ~config ~scenario:(farm_scenario ()) ~seed:6 () in
  (* Least-loaded keeps every node in the deal. *)
  Alcotest.(check (array (list int))) "all nodes enrolled" [| [ 0; 1; 2; 3 ] |]
    report.Adaptive_repl.initial_replicas;
  Alcotest.(check int) "completes" 200 (Trace.items_completed report.Adaptive_repl.trace)

let test_adaptive_repl_records_adaptations_in_trace () =
  let scenario =
    repl_scenario ~items:400 ~loads:[ (1, Loadgen.Step { at = 8.0; level = 0.05 }) ] ()
  in
  let report = Adaptive_repl.run ~scenario ~seed:5 () in
  let recorded = Trace.adaptations report.Adaptive_repl.trace in
  Alcotest.(check int) "every reconfiguration is in the trace"
    report.Adaptive_repl.reconfigurations (List.length recorded);
  List.iter
    (fun (a : Trace.adaptation) ->
      Alcotest.(check bool) "positive predicted gain" true (a.Trace.predicted_gain > 0.0))
    recorded

(* ------------------------------------------------------------- Baselines *)

let test_baselines_static_shapes () =
  let scenario = small_scenario () in
  let rr = Baselines.static_round_robin ~scenario ~seed:3 in
  Alcotest.(check (array int)) "round robin" [| 0; 1; 2 |] (Mapping.to_array rr.Baselines.mapping);
  let blocks = Baselines.static_blocks ~scenario ~seed:3 in
  Alcotest.(check (array int)) "blocks" [| 0; 1; 2 |] (Mapping.to_array blocks.Baselines.mapping);
  let single = Baselines.run_static ~label:"single" ~mapping:[| 0; 0; 0 |] ~scenario ~seed:3 in
  Alcotest.(check bool) "single node slower" true
    (single.Baselines.makespan > rr.Baselines.makespan)

let test_baselines_identical_world () =
  let scenario = small_scenario () in
  let a = Baselines.run_static ~label:"a" ~mapping:[| 0; 1; 2 |] ~scenario ~seed:3 in
  let b = Baselines.run_static ~label:"b" ~mapping:[| 0; 1; 2 |] ~scenario ~seed:3 in
  check_float "same seed, identical run" a.Baselines.makespan b.Baselines.makespan

let test_baselines_oracle_dominates () =
  let scenario = small_scenario ~loads:[ (0, Loadgen.Constant 0.4) ] ~items:30 () in
  let oracle, all = Baselines.oracle_static ~scenario ~seed:3 () in
  Alcotest.(check int) "swept the full space" 27 (List.length all);
  List.iter
    (fun (_, makespan) ->
      Alcotest.(check bool) "oracle is the minimum" true
        (oracle.Baselines.makespan <= makespan +. 1e-9))
    all;
  let model_best = Baselines.static_model_best ~scenario ~seed:3 () in
  Alcotest.(check bool) "oracle <= model best" true
    (oracle.Baselines.makespan <= model_best.Baselines.makespan +. 1e-9)

let test_baselines_oracle_space_guard () =
  let scenario =
    Scenario.make ~name:"big"
      ~make_topo:(fun engine ->
        Topology.uniform engine ~n:8 ~speed:10.0 ~latency:1e-3 ~bandwidth:1e8 ())
      ~stages:(Stage.balanced ~n:8 ~work:1.0 ())
      ~input:(Stream_spec.make ~items:2 ())
      ()
  in
  Alcotest.check_raises "space too large"
    (Invalid_argument "Baselines.oracle_static: assignment space too large") (fun () ->
      ignore (Baselines.oracle_static ~scenario ~seed:1 ()))

let test_baselines_clairvoyant_completes () =
  let scenario = step_scenario () in
  let report = Baselines.clairvoyant ~scenario ~seed:7 in
  Alcotest.(check int) "all items" 400 (Trace.items_completed report.Adaptive.trace);
  Alcotest.(check string) "policy name" "always_best" report.Adaptive.policy_name

let test_baselines_model_best_beats_blind_round_robin () =
  let scenario = small_scenario ~loads:[ (0, Loadgen.Constant 0.2) ] () in
  let model = Baselines.static_model_best ~scenario ~seed:3 () in
  let blind = Baselines.static_round_robin ~scenario ~seed:3 in
  (* Round robin is forced onto the 20%-available node; the model, which
     knows, must win clearly. *)
  Alcotest.(check bool)
    (Printf.sprintf "model (%.2f) beats blind (%.2f)" model.Baselines.makespan
       blind.Baselines.makespan)
    true
    (model.Baselines.makespan < blind.Baselines.makespan)

let () =
  Alcotest.run "aspipe_core"
    [
      ( "calibration",
        [
          Alcotest.test_case "constant exact" `Quick test_calibration_exact_for_constant_work;
          Alcotest.test_case "converges" `Quick test_calibration_converges_with_probes;
          Alcotest.test_case "noise bounded" `Quick test_calibration_noise_bounded;
          Alcotest.test_case "validation" `Quick test_calibration_validation;
        ] );
      ( "migration",
        [
          Alcotest.test_case "stages moving" `Quick test_migration_stages_moving;
          Alcotest.test_case "stall model" `Quick test_migration_stall;
        ] );
      ( "policy",
        [
          Alcotest.test_case "never" `Quick test_policy_never;
          Alcotest.test_case "periodic remaps" `Quick test_policy_periodic_remaps_on_gain;
          Alcotest.test_case "amortization" `Quick test_policy_periodic_respects_migration_cost;
          Alcotest.test_case "threshold degradation" `Quick test_policy_threshold_requires_degradation;
          Alcotest.test_case "threshold cooldown" `Quick test_policy_threshold_cooldown;
          Alcotest.test_case "always best" `Quick test_policy_always_best_small_gains;
          test_policy_bound_keeps_decisions;
          Alcotest.test_case "bound boundary" `Quick test_policy_bound_boundary;
          Alcotest.test_case "bound witness" `Quick test_policy_bound_witness;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "build applies loads" `Quick test_scenario_build_applies_loads;
          Alcotest.test_case "validation" `Quick test_scenario_validation;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "completes" `Quick test_adaptive_completes_static_world;
          Alcotest.test_case "deterministic" `Quick test_adaptive_deterministic;
          Alcotest.test_case "any seed completes" `Quick test_adaptive_seed_changes_world;
          Alcotest.test_case "beats static after step" `Slow test_adaptive_beats_static_after_step;
          Alcotest.test_case "never policy" `Slow test_adaptive_never_policy_stays_put;
          Alcotest.test_case "blind start discovers load" `Slow
            test_adaptive_blind_start_discovers_load;
          Alcotest.test_case "ctmc evaluator" `Quick test_adaptive_with_ctmc_evaluator;
          Alcotest.test_case "colocates under congestion" `Slow
            test_adaptive_colocates_under_congestion;
          test_adaptive_conservation_under_dynamics;
          Alcotest.test_case "trace matches subscribed" `Quick
            test_adaptive_trace_matches_subscribed;
        ] );
      ( "adaptive_farm",
        [
          Alcotest.test_case "one stage required" `Quick test_adaptive_farm_requires_one_stage;
          Alcotest.test_case "static completes" `Quick test_adaptive_farm_static_completes;
          Alcotest.test_case "evicts degraded worker" `Slow
            test_adaptive_farm_evicts_degraded_worker;
          Alcotest.test_case "deterministic" `Quick test_adaptive_farm_deterministic;
        ] );
      ( "adaptive_repl",
        [
          Alcotest.test_case "initial allocation" `Quick test_adaptive_repl_initial_allocation;
          Alcotest.test_case "routes around collapse" `Slow
            test_adaptive_repl_routes_around_collapse;
          Alcotest.test_case "needs enough nodes" `Quick test_adaptive_repl_needs_enough_nodes;
          Alcotest.test_case "least-loaded farm mode" `Quick test_adaptive_farm_least_loaded_mode;
          Alcotest.test_case "repl adaptations traced" `Slow
            test_adaptive_repl_records_adaptations_in_trace;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "static shapes" `Quick test_baselines_static_shapes;
          Alcotest.test_case "identical world" `Quick test_baselines_identical_world;
          Alcotest.test_case "oracle dominates" `Slow test_baselines_oracle_dominates;
          Alcotest.test_case "oracle space guard" `Quick test_baselines_oracle_space_guard;
          Alcotest.test_case "clairvoyant completes" `Slow test_baselines_clairvoyant_completes;
          Alcotest.test_case "model best vs blind" `Quick
            test_baselines_model_best_beats_blind_round_robin;
        ] );
    ]
