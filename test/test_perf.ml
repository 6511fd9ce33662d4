(* Performance-contract tests: the optimisations in the virtual-time hot
   path must not change observable behaviour, and the allocation-lean
   paths must actually be lean.

   Two caveats keep these honest on shared CI hardware:
   - no wall-clock assertions (those live in the layered benchmark,
     bench/layers, compared between commits with a tolerance);
   - allocation budgets are coarse, because the dev profile compiles with
     [-opaque] (no cross-module inlining) and so boxes floats at call
     boundaries that the release profile keeps unboxed. The budgets catch
     a reintroduced per-event payload or per-push cell, not a word or two
     of boxing. *)

module Engine = Aspipe_des.Engine
module Bus = Aspipe_obs.Bus
module Pqueue = Aspipe_des.Pqueue

let make_sim ~items engine =
  let rng = Aspipe_util.Rng.create 42 in
  let topo =
    Aspipe_grid.Topology.uniform engine ~n:3 ~speed:10.0 ~latency:0.01 ~bandwidth:1e7 ()
  in
  let stages = Aspipe_skel.Stage.balanced ~n:4 ~work:1.0 () in
  let input = Aspipe_skel.Stream_spec.make ~items () in
  Aspipe_skel.Skel_sim.create ~rng ~topo ~stages ~mapping:[| 0; 1; 2; 0 |] ~input ()

(* A sink-free simulation run stamps no events at all: every hot emit is
   guarded by [Bus.active], and fault-free runs emit no control events. *)
let test_sink_free_run_emits_nothing () =
  let engine = Engine.create () in
  let sim = make_sim ~items:500 engine in
  Alcotest.(check bool) "bus inactive without sinks" false (Bus.active (Engine.bus engine));
  Aspipe_skel.Skel_sim.run_to_completion sim;
  Alcotest.(check int) "completed" 500 (Aspipe_skel.Skel_sim.items_completed sim);
  Alcotest.(check int) "no events stamped" 0 (Bus.events_emitted (Engine.bus engine))

(* The same workload, observed (a trace subscribed to the bus, which turns
   the guarded emits on) and unobserved: the unobserved run must allocate
   strictly less (it builds no payloads), and both must agree on every
   simulation-visible outcome. *)
let test_unobserved_run_allocates_less () =
  let run ~observed =
    let engine = Engine.create () in
    if observed then Aspipe_grid.Trace.subscribe (Aspipe_grid.Trace.create ()) (Engine.bus engine);
    let sim = make_sim ~items:2000 engine in
    let a0 = Gc.allocated_bytes () in
    Aspipe_skel.Skel_sim.run_to_completion sim;
    let bytes = Gc.allocated_bytes () -. a0 in
    (bytes, Aspipe_skel.Skel_sim.items_completed sim, Engine.now engine)
  in
  let obs_bytes, obs_items, obs_now = run ~observed:true in
  let un_bytes, un_items, un_now = run ~observed:false in
  Alcotest.(check int) "same items completed" obs_items un_items;
  Alcotest.(check (float 1e-9)) "same final clock" obs_now un_now;
  if un_bytes >= obs_bytes then
    Alcotest.failf "unobserved run allocated %.0f bytes >= observed %.0f" un_bytes obs_bytes

(* Guarded emit on an inactive bus: the guard itself must not allocate a
   payload per call. The budget is generous (loop overhead, dev-profile
   boxing) but far below one payload record per iteration. *)
let test_guarded_emit_allocation_budget () =
  let bus = Bus.create () in
  let iters = 100_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to iters do
    if Bus.active bus then Bus.emit bus (Aspipe_obs.Event.Completion { item = i })
  done;
  let per_iter = (Gc.minor_words () -. w0) /. Float.of_int iters in
  if per_iter > 1.0 then
    Alcotest.failf "guarded emit allocated %.2f minor words/iter on an inactive bus" per_iter;
  Alcotest.(check int) "seq untouched" 0 (Bus.events_emitted bus)

(* The schedule/pop_min/fire loop: a coarse per-event budget that would
   catch a reintroduced closure, option, or heap cell per operation. *)
let test_pqueue_cycle_allocation_budget () =
  let q = Pqueue.create () in
  let f () = () in
  for i = 0 to 63 do
    ignore (Pqueue.insert q (0.0001 *. Float.of_int i) f)
  done;
  let iters = 100_000 in
  let w0 = Gc.minor_words () in
  for i = 0 to iters - 1 do
    if Pqueue.pop_min q ~horizon:infinity then
      ignore (Pqueue.insert q (Pqueue.popped_key q +. (0.0001 *. Float.of_int (i land 63))) f)
  done;
  let per_op = (Gc.minor_words () -. w0) /. Float.of_int iters in
  if per_op > 16.0 then
    Alcotest.failf "pop_min/insert cycle allocated %.2f minor words/op" per_op

(* The multicore chunk path: pumping a pre-filled, closed int ring through
   one stage at batch 64, then draining the stage's output ring with
   pop_chunk, all on one domain. Neither may allocate per item: a boxed
   item costs >= 2 words per item, a closure per chunk ~0.1. The budget
   leaves room for the pump's two chunk buffers and first [Spsc.pop]. *)
let test_ring_pump_allocation_budget () =
  let module Spsc = Aspipe_util.Spsc in
  let items = 65_536 and batch = 64 in
  let cin = Spsc.create ~capacity:items and cout = Spsc.create ~capacity:items in
  Spsc.push_chunk cin (Array.init items Fun.id) ~pos:0 ~len:items;
  Spsc.close cin;
  let per_item w0 = (Gc.minor_words () -. w0) /. Float.of_int items in
  let w0 = Gc.minor_words () in
  Aspipe_skel.Skel_mc.pump ~batch succ cin cout;
  let pump_words = per_item w0 in
  let dst = Array.make batch 0 in
  let sum = ref 0 and popped = ref 0 in
  let w0 = Gc.minor_words () in
  let rec drain () =
    let n = Spsc.pop_chunk cout dst ~pos:0 ~len:batch in
    if n > 0 then begin
      for k = 0 to n - 1 do
        sum := !sum + dst.(k)
      done;
      popped := !popped + n;
      drain ()
    end
  in
  drain ();
  let pop_words = per_item w0 in
  Alcotest.(check int) "every item pumped" items !popped;
  Alcotest.(check int) "pumped values" (items * (items + 1) / 2) !sum;
  if pump_words > 0.05 then
    Alcotest.failf "pump allocated %.3f minor words/item" pump_words;
  if pop_words > 0.05 then
    Alcotest.failf "pop_chunk allocated %.3f minor words/item" pop_words

(* The NWS ensemble the monitor feeds once per sensor and sample: one
   [observe] updates all 14 members in flat float arrays and caches their
   predictions, so neither [observe] nor [predict] allocates. Each reads
   2.0 words per call, the dev-profile box of its argument or result; a
   closure, an option or a window copy per call does not fit. *)
let test_forecast_ensemble_allocation_budget () =
  let module Forecast = Aspipe_util.Forecast in
  let f = Forecast.adaptive ~fallback:1.0 () in
  let signal i = 0.5 +. (0.4 *. sin (0.37 *. Float.of_int i)) in
  (* Fill every window first, so the budget covers the steady state. *)
  for i = 0 to 99 do
    Forecast.observe f (signal i)
  done;
  let iters = 20_000 in
  let inputs = Array.init iters signal in
  let sink = ref 0.0 in
  let w0 = Gc.minor_words () in
  for i = 0 to iters - 1 do
    Forecast.observe f inputs.(i)
  done;
  let observe_words = (Gc.minor_words () -. w0) /. Float.of_int iters in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    sink := !sink +. Forecast.predict f
  done;
  let predict_words = (Gc.minor_words () -. w0) /. Float.of_int iters in
  Alcotest.(check bool) "predictions are finite" true (Float.is_finite !sink);
  if observe_words > 2.5 then
    Alcotest.failf "ensemble observe allocated %.1f minor words/call" observe_words;
  if predict_words > 2.5 then
    Alcotest.failf "ensemble predict allocated %.1f minor words/call" predict_words

(* The monitor's sensing on a serve_day-shaped estate (5 nodes: 30 sensors
   per tick) under the default sensor, per sample taken. What it allocates
   is dev-profile boxing at cross-module calls (the resource read, the
   generator's draws, the noise, the forecaster's argument): 15.4 words
   per sample. An option per reading reads 16.4 and a closure per Gaussian
   draw 19.8, so the 15.8 ceiling trips on either. *)
let test_monitor_allocation_budget () =
  let module Monitor = Aspipe_grid.Monitor in
  let engine = Engine.create () in
  let topo =
    Aspipe_grid.Topology.uniform engine ~n:5 ~speed:10.0 ~latency:0.01 ~bandwidth:1e7 ()
  in
  let monitor = Monitor.create ~rng:(Aspipe_util.Rng.create 3) ~every:5.0 ~horizon:10_000.0 topo in
  let w0 = Gc.minor_words () in
  Engine.run engine;
  let samples = Monitor.samples_taken monitor in
  let per_sample = (Gc.minor_words () -. w0) /. Float.of_int samples in
  Alcotest.(check bool) "most readings arrive" true (samples > 55_000);
  if per_sample > 15.8 then
    Alcotest.failf "monitor allocated %.1f minor words per sample" per_sample

(* The scale-down search on a 4-stage x 5-node space (625 mappings), per
   call: the answer on one node (5 mappings visited), on two (145) and
   nowhere (all 625). The ceiling is 200 words of setup (the incremental
   evaluator and a few scratch arrays) plus 5 per visited mapping. A boxed
   score and what the evaluator's moves box fit (about 3 words); a
   materialized mapping per visited mapping, or a search that visits some
   mappings twice, does not. *)
let test_cheapest_allocation_budget () =
  let module Predictor = Aspipe_model.Predictor in
  let engine = Engine.create () in
  let topo =
    Aspipe_grid.Topology.heterogeneous engine ~speeds:[| 12.0; 10.0; 10.0; 8.0; 6.0 |]
      ~latency:0.01 ~bandwidth:1e7 ()
  in
  let stages = Stage_gen.balanced ~n:4 ~work:1.0 ~output_bytes:1e4 () in
  let spec =
    Aspipe_model.Costspec.of_topology ~topo ~stages
      ~input:(Aspipe_skel.Stream_spec.make ~item_bytes:1e4 ~items:1 ())
      ()
  in
  let predictor = Predictor.make spec in
  let nodes_of m =
    List.length (List.sort_uniq Int.compare (Array.to_list (Aspipe_model.Mapping.to_array m)))
  in
  let best_on n =
    List.fold_left
      (fun acc m -> if nodes_of m = n then Float.max acc (Predictor.evaluate predictor m) else acc)
      0.0
      (Aspipe_model.Mapping.enumerate ~stages:4 ~processors:5 ())
  in
  List.iter
    (fun (name, required, nodes, visited) ->
      ignore (Predictor.cheapest ~required predictor);
      let w0 = Gc.minor_words () in
      let target = Predictor.cheapest ~required predictor in
      let words = Gc.minor_words () -. w0 in
      Alcotest.(check (option int)) (name ^ ": node count") nodes (Option.map nodes_of target);
      if words > 200.0 +. (5.0 *. visited) then
        Alcotest.failf "cheapest (%s) allocated %.0f minor words per call" name words)
    [
      ("one node", best_on 1, Some 1, 5.0);
      ("two nodes", best_on 2, Some 2, 145.0);
      ("nothing covers", Float.succ (best_on 4), None, 625.0);
    ]

(* E13b's stiffness-1e3 chain (4 stages, 81 states) solved by power
   iteration, which takes thousands of sweeps: the solve may allocate its
   vectors, but one boxed float per transition per sweep would run to
   tens of millions of words. *)
let test_ctmc_power_allocation_budget () =
  let module Ctmc = Aspipe_model.Ctmc in
  let model = Ctmc.build ~service_rates:(Array.make 4 1.0) ~move_rates:(Array.make 5 1e3) in
  let w0 = Gc.minor_words () in
  let x = Ctmc.throughput ~solver:Ctmc.Power ~max_iter:2_000_000 model in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "plausible throughput" true (x > 0.3 && x <= 1.0);
  if words > 10_000.0 then Alcotest.failf "power solve allocated %.0f minor words" words

(* An adaptive run with only a [Control] sink attached (what the layered
   benchmark's decision hook does): the report's trace is written directly,
   so the guarded per-item emits stay off and the bus sees only control
   events, a few per adaptation epoch. A trace subscribed behind the
   caller's back would turn on several events per item and stage. *)
let test_adaptive_control_sink_event_budget () =
  let items = 150 in
  let scenario =
    Aspipe_core.Scenario.make ~name:"perf-events"
      ~make_topo:(fun engine ->
        Aspipe_grid.Topology.uniform engine ~n:3 ~speed:10.0 ~latency:0.01 ~bandwidth:1e7 ())
      ~loads:[ (0, Aspipe_grid.Loadgen.Step { at = 20.0; level = 0.2 }) ]
      ~stages:(Aspipe_workload.Synthetic.hot_stage ~n:4 ~factor:3.0 ())
      ~input:
        (Aspipe_skel.Stream_spec.make ~arrival:(Aspipe_skel.Stream_spec.Spaced 0.3) ~items ())
      ~horizon:1e5 ()
  in
  let bus = ref None in
  let report =
    Aspipe_core.Adaptive.run
      ~instrument:(fun b ->
        bus := Some b;
        Bus.subscribe ~interest:Bus.Control b (fun _ -> ()))
      ~scenario ~seed:3 ()
  in
  let events = match !bus with Some b -> Bus.events_emitted b | None -> 0 in
  Alcotest.(check int) "completed" items
    (Aspipe_grid.Trace.items_completed report.Aspipe_core.Adaptive.trace);
  let per_item = Float.of_int events /. Float.of_int items in
  if per_item > 1.0 then Alcotest.failf "%.1f bus events per item with a Control sink" per_item

(* The generator keeps its state unboxed in a byte buffer: a draw may box
   its float result (dev-profile boxing at the call), nothing more, and a
   new generator is its buffer. Boxing the state words the draw stores
   would cost about 20 words per draw, far over the budget. *)
let test_rng_allocation_budget () =
  let module Rng = Aspipe_util.Rng in
  let rng = Rng.create 7 in
  let iters = 100_000 in
  let sink = ref 0.0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    sink := !sink +. Rng.float rng
  done;
  let per_float = (Gc.minor_words () -. w0) /. Float.of_int iters in
  let seeds = ref 0 in
  let w0 = Gc.minor_words () in
  for seed = 1 to iters do
    if Rng.float (Rng.create seed) < 0.5 then incr seeds
  done;
  let per_create = (Gc.minor_words () -. w0) /. Float.of_int iters in
  Alcotest.(check bool) "draws in [0, 1)" true (!sink >= 0.0 && !sink < Float.of_int iters);
  Alcotest.(check bool) "some seeds flip heads" true (!seeds > 0);
  if per_float > 3.0 then Alcotest.failf "Rng.float allocated %.1f minor words/draw" per_float;
  if per_create > 8.0 then Alcotest.failf "Rng.create allocated %.1f minor words" per_create

(* A closed 10,000-item, 4-stage run with exponential work: every dispatch
   recomputes its keyed draw, a generator and a sample of a few dozen words.
   Exponential work, not Constant, so the budget covers that draw and not
   only the constant short cut. The run allocates about 171 minor words per
   item; memoising the draws in an (item, stage) [Hashtbl] inside
   [try_dispatch] reads about 199, so the 185 ceiling trips on a memo
   table. *)
let test_skel_sim_keyed_work_budget () =
  let items = 10_000 in
  let engine = Engine.create () in
  let topo =
    Aspipe_grid.Topology.uniform engine ~n:3 ~speed:10.0 ~latency:0.01 ~bandwidth:1e7 ()
  in
  let stages =
    Array.init 4 (fun i ->
        Aspipe_skel.Stage.make ~name:(Printf.sprintf "s%d" i)
          ~work:(Aspipe_util.Variate.Exponential { rate = 1.0 })
          ())
  in
  let input = Aspipe_skel.Stream_spec.make ~items () in
  let w0 = Gc.minor_words () in
  let sim =
    Aspipe_skel.Skel_sim.create ~rng:(Aspipe_util.Rng.create 42) ~topo ~stages
      ~mapping:[| 0; 1; 2; 0 |] ~input ()
  in
  Aspipe_skel.Skel_sim.run_to_completion sim;
  let per_item = (Gc.minor_words () -. w0) /. Float.of_int items in
  Alcotest.(check int) "completed" items (Aspipe_skel.Skel_sim.items_completed sim);
  if per_item > 185.0 then
    Alcotest.failf "closed run allocated %.0f minor words per item" per_item

(* Golden determinism: the campaign output for seventeen registry
   experiments is byte-identical to the digests captured before the
   optimisation, and identical again under --jobs 4. E12 (task farm) and E14
   (replicated pipeline) pin the farm's run on the replicated-pipeline
   simulator. E7 (threshold and min_gain sweeps), E17 (policy ablation), E22
   (flash-crowd scale-ups) and E24 (failover under serving) pin the decision
   paths. E4, E8, E11, E15, E19, E20, E21 and E23 pin the rest of the
   adaptive and serving drivers' experiments: E19 is the only one that sets
   a failover cap, and E21 is the serving autoscaler panel. E2, E5, E9 and
   E16 pin the static simulations of the mapping, scalability, forecaster
   and offload experiments. *)
let golden_campaign = [ ("E1", "28a482341504a86deef536622a83277c");
                        ("E2", "a7d204eccd3c38d62ac71b85f882265c");
                        ("E5", "65dbd3b7aaf91192bbc1e90c8cbc48dd");
                        ("E9", "633b1cb900149aea5f704734dffa4a84");
                        ("E16", "ad0486a00e5a2914233be6d90d455aac");
                        ("E3", "705233c8dcefc56efb2182bf2f3446ae");
                        ("E12", "8b654be1b6b70c05f6b5d66200d47056");
                        ("E14", "2451d0635c75297fead530ef0c76fe1a");
                        ("E18", "d99e1d91c6ba0cf1d9f55a5ee1201040");
                        ("E7", "51217a700f1a508aca36e7f3a8205434");
                        ("E17", "04786c4d0fb9d2f62d3c373ee15adc1e");
                        ("E22", "35f65ab5ca0dfadb0ca2fea323b1b4b2");
                        ("E24", "1e062d4d47dc2c7ec9822fb6723523a8");
                        ("E4", "2c0a51e1ecff765f04352c8371b0ac5c");
                        ("E8", "3722131ed2f7756132f872298abf3b3a");
                        ("E11", "a3add2ad6eaea66bac60bf8afbf241bb");
                        ("E15", "79b86194f57f6587a213084eecb03902");
                        ("E19", "b3d663d90265b42c9d275c077f2ec248");
                        ("E20", "c045fd04d75269b107ea823181a8e812");
                        ("E21", "ed3b6b44407fb7ae1e882f8d47977629");
                        ("E23", "2599c703397318811f05ed88d1151269") ]

let campaign_digests ?(oversubscribe = false) ~jobs () =
  let report =
    Aspipe_runner.Campaign.run ~jobs ~oversubscribe ~only:(List.map fst golden_campaign)
      ~quick:true ()
  in
  List.map
    (fun o ->
      ( o.Aspipe_runner.Campaign.id,
        Digest.to_hex (Digest.string o.Aspipe_runner.Campaign.output) ))
    report.Aspipe_runner.Campaign.outcomes

let check_campaign_digests digests =
  List.iter
    (fun (id, expected) ->
      match List.assoc_opt id digests with
      | None -> Alcotest.failf "experiment %s missing from campaign output" id
      | Some got -> Alcotest.(check string) (id ^ " output digest") expected got)
    golden_campaign

let test_golden_campaign_jobs1 () = check_campaign_digests (campaign_digests ~jobs:1 ())

let test_golden_campaign_jobs4 () =
  (* ~oversubscribe keeps this a real 4-worker pool on any host. *)
  check_campaign_digests (campaign_digests ~oversubscribe:true ~jobs:4 ())

(* Golden determinism: the full JSONL event stream of an adaptive run —
   every event, field and float rendering — is byte-identical to the
   pre-optimisation capture, for two seeds. *)
let golden_jsonl = [ (3, "e383d75d7c75493e32b4ea2417b03a96", 141161);
                     (7, "7eaf8f4683aa8f447850bc8f554531f9", 135858) ]

let golden_scenario ?faults () =
  Aspipe_core.Scenario.make ~name:"perf-golden"
    ~make_topo:(fun engine ->
      Aspipe_grid.Topology.uniform engine ~n:3 ~speed:10.0 ~latency:0.01 ~bandwidth:1e7 ())
    ~loads:[ (0, Aspipe_grid.Loadgen.Step { at = 20.0; level = 0.2 }) ]
    ?faults
    ~stages:(Aspipe_workload.Synthetic.hot_stage ~n:4 ~factor:3.0 ())
    ~input:
      (Aspipe_skel.Stream_spec.make ~arrival:(Aspipe_skel.Stream_spec.Spaced 0.3) ~items:80 ())
    ~horizon:1e5 ()

(* Runs [run] with a JSONL sink on its bus and checks the stream's length
   and digest; returns the run's result. *)
let check_stream ~name ~expected ~expected_bytes run =
  let buffer = Buffer.create 65536 in
  let result =
    run (fun bus -> Bus.subscribe bus (Aspipe_obs.Jsonl.sink_to_buffer buffer))
  in
  Alcotest.(check int) (name ^ " stream length") expected_bytes (Buffer.length buffer);
  Alcotest.(check string) (name ^ " stream digest") expected
    (Digest.to_hex (Digest.string (Buffer.contents buffer)));
  result

let test_golden_jsonl () =
  List.iter
    (fun (seed, expected, expected_bytes) ->
      ignore
        (check_stream ~name:(Printf.sprintf "seed %d" seed) ~expected ~expected_bytes
           (fun instrument ->
             Aspipe_core.Adaptive.run ~instrument ~scenario:(golden_scenario ()) ~seed ())))
    golden_jsonl

(* Golden determinism of the serving loop and of both failover paths: the
   JSONL stream of Serve.run under latency_gradient on test_serve's diurnal
   scenario, of the same run with its provisioned host crashing at 40 s,
   and of the seed-3 adaptive run above with node 1 crashing at 10 s. Each
   pins the order of the considered, rejected, committed and failover
   events, not just the rounded tables. *)
let golden_streams =
  [ ("serve latency_gradient", "cd922ee190d85439c5ac2020cc8f1dc0", 447906);
    ("serve provisioned host crash", "3ec5a861120a884307f2a40bd740b6c6", 444432);
    ("adaptive mid-run crash", "9fb23e7944145a0579644c48075886d1", 141843) ]

let serve_scenario ?faults () =
  Aspipe_core.Scenario.make ~name:"serve-test"
    ~make_topo:(fun engine ->
      Aspipe_grid.Topology.uniform engine ~n:3 ~speed:10.0 ~latency:0.01 ~bandwidth:1e7 ())
    ?faults
    ~stages:
      (Array.init 3 (fun i ->
           Aspipe_skel.Stage.make ~name:(Printf.sprintf "s%d" i) ~output_bytes:1e4
             ~state_bytes:1e5 ~work:(Aspipe_util.Variate.Constant 1.0) ()))
    ~input:(Aspipe_skel.Stream_spec.make ~item_bytes:1e4 ~items:1 ())
    ~horizon:120.0 ()

let serve_diurnal ~scenario instrument =
  let module Serve = Aspipe_serve in
  Serve.Serve.run ~instrument
    ~autoscaler:(Serve.Autoscaler.latency_gradient ())
    ~arrival:(Serve.Arrival.diurnal ~base:1.6 ~amplitude:1.2 ~period:240.0)
    ~slo:(Serve.Slo.spec ~target_quantile:0.95 ~threshold:6.0 ~window:30.0)
    ~provision_rate:1.6 ~scenario ~seed:11 ()

let test_golden_streams () =
  let check name run =
    let _, expected, expected_bytes = List.find (fun (n, _, _) -> n = name) golden_streams in
    check_stream ~name ~expected ~expected_bytes run
  in
  let fault_free = check "serve latency_gradient" (serve_diurnal ~scenario:(serve_scenario ())) in
  let host = (Aspipe_model.Mapping.to_array fault_free.Aspipe_serve.Serve.initial_mapping).(0) in
  let crashed =
    check "serve provisioned host crash"
      (serve_diurnal
         ~scenario:(serve_scenario ~faults:[ (host, Aspipe_fault.Fault.Crash_at 40.0) ] ()))
  in
  Alcotest.(check int) "serving failover committed" 1 crashed.Aspipe_serve.Serve.failover_count;
  let adaptive =
    check "adaptive mid-run crash" (fun instrument ->
        Aspipe_core.Adaptive.run ~instrument
          ~scenario:(golden_scenario ~faults:[ (1, Aspipe_fault.Fault.Crash_at 10.0) ] ())
          ~seed:3 ())
  in
  Alcotest.(check int) "adaptive failover committed" 1
    adaptive.Aspipe_core.Adaptive.failover_count

(* Golden determinism of the mapping decisions: the benchmark's
   adaptive_search world (9 unit stages on nodes of speed 12/10/10/8, node 0
   stepping to 0.2 at 40 % of the run), shrunk to 1,000 items, under the
   three searching policies. Every epoch searches the whole 4^9 space, so
   the digest covers the makespan, throughput, adaptation count, policy
   evaluations, both mappings and every completion time, as captured before
   the decisions were bounded. *)
let golden_decisions =
  [ ("periodic_best", 1, "b417405bfe1b124aab6456fb3eaab20c");
    ("periodic_best", 7, "1561a270ba776d6fcb2df15718b9d899");
    ("always_best", 1, "b417405bfe1b124aab6456fb3eaab20c");
    ("always_best", 7, "1561a270ba776d6fcb2df15718b9d899");
    ("threshold", 1, "b417405bfe1b124aab6456fb3eaab20c");
    ("threshold", 7, "1561a270ba776d6fcb2df15718b9d899") ]

let decisions_scenario =
  let items = 1_000 in
  Aspipe_core.Scenario.make ~name:"perf-decisions"
    ~make_topo:(fun engine ->
      Aspipe_grid.Topology.heterogeneous engine ~speeds:[| 12.0; 10.0; 10.0; 8.0 |]
        ~latency:0.01 ~bandwidth:1e7 ())
    ~loads:[ (0, Aspipe_grid.Loadgen.Step { at = 0.25 *. Float.of_int items *. 0.4; level = 0.2 }) ]
    ~stages:
      (Array.init 9 (fun i ->
           Aspipe_skel.Stage.make ~name:(Printf.sprintf "s%d" i) ~output_bytes:1e4
             ~state_bytes:2e6 ~work:(Aspipe_util.Variate.Constant 1.0) ()))
    ~input:
      (Aspipe_skel.Stream_spec.make ~arrival:(Aspipe_skel.Stream_spec.Spaced 0.25)
         ~item_bytes:1e4 ~items ())
    ~horizon:1e6 ()

let decisions_digest (r : Aspipe_core.Adaptive.report) =
  let module Mapping = Aspipe_model.Mapping in
  let b = Buffer.create 16384 in
  Printf.bprintf b "%h %h %d %d %s %s" r.Aspipe_core.Adaptive.makespan
    r.Aspipe_core.Adaptive.throughput r.Aspipe_core.Adaptive.adaptation_count
    r.Aspipe_core.Adaptive.policy_evaluations
    (Mapping.to_string r.Aspipe_core.Adaptive.initial_mapping)
    (Mapping.to_string r.Aspipe_core.Adaptive.final_mapping);
  Array.iter
    (fun (item, t) -> Printf.bprintf b " %d:%h" item t)
    (Aspipe_grid.Trace.completions r.Aspipe_core.Adaptive.trace);
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_golden_decisions () =
  let module Policy = Aspipe_core.Policy in
  List.iter
    (fun (name, seed, expected) ->
      let policy =
        match name with
        | "periodic_best" -> fun () -> Policy.periodic_best ()
        | "always_best" -> fun () -> Policy.always_best ()
        | _ -> fun () -> Policy.threshold ()
      in
      let config = { Aspipe_core.Adaptive.default_config with Aspipe_core.Adaptive.policy } in
      let report = Aspipe_core.Adaptive.run ~config ~scenario:decisions_scenario ~seed () in
      Alcotest.(check string) (Printf.sprintf "%s seed %d digest" name seed) expected
        (decisions_digest report))
    golden_decisions

(* Golden determinism of the bounded buffers and of same-instant ties: E13a's
   shape (3 bursty lognormal stages spread over 3 nodes, 600 items) through
   Skel_sim.execute at queue capacities 1 and 2, where deliveries park and
   land in dispatch order, and unbounded. The first three streams are
   Immediate, so every arrival lands at t = 0, the heaviest tie case for the
   event queue; the Poisson ones interleave arrivals with parked deliveries.
   Each case digests the full JSONL event stream of the engine's bus and the
   returned trace's completions and sojourns, as captured before the
   simulator's lazy arrivals and per-stage callbacks. *)
let golden_bounded =
  let module Stream_spec = Aspipe_skel.Stream_spec in
  [ ("e13a capacity 1", Some 1, Stream_spec.Immediate,
     "0b5aaf5e82c182bdd58a584d2cd27ca6", "3c2a8e4a43594bbbcee446beb2d8878e", 801836);
    ("e13a capacity 2", Some 2, Stream_spec.Immediate,
     "b056f3958fc7d1da2b7e9c983485bdd7", "e20266aae0f6bbb6d2fdaecbf14b36e7", 802111);
    ("e13a unbounded", None, Stream_spec.Immediate,
     "7a82a030e63697acb589beca3c72cce3", "4fc7666826425c27e2f841af54190349", 800747);
    ("poisson capacity 1", Some 1, Stream_spec.Poisson 9.0,
     "f833ac41da1a92c5d5b50dbeaeac3f64", "5c8734bac9a936ce55afad4fce7d053f", 801798);
    ("poisson capacity 2", Some 2, Stream_spec.Poisson 9.0,
     "103985fda9b99908adc52f2f960e559e", "92f92a32dfcd043a9e46fd9a68a7b570", 801970) ]

let test_golden_bounded () =
  List.iter
    (fun (name, queue_capacity, arrival, expected_trace, expected_stream, expected_bytes) ->
      let scenario =
        Aspipe_core.Scenario.make ~name:"perf-bounded"
          ~make_topo:(Aspipe_exp.Common.uniform_grid ~n:3 ~latency:0.001 ())
          ~stages:
            (Array.init 3 (fun i ->
                 Aspipe_skel.Stage.make ~name:(Printf.sprintf "e13s%d" i) ~output_bytes:1e4
                   ~work:(Aspipe_util.Variate.Lognormal { mu = -0.72; sigma = 1.2 })
                   ()))
          ~input:(Aspipe_skel.Stream_spec.make ~arrival ~item_bytes:1e4 ~items:600 ())
          ()
      in
      (* The same run unobserved and with a JSONL sink, which switches the
         guarded emits on: both must give the captured trace. *)
      let run ?sink () =
        let topo = Aspipe_core.Scenario.build scenario ~rng:(Aspipe_util.Rng.create 91) in
        Option.iter (Bus.subscribe (Engine.bus (Aspipe_grid.Topology.engine topo))) sink;
        let trace =
          Aspipe_skel.Skel_sim.execute ~rng:(Aspipe_util.Rng.create 92) ?queue_capacity ~topo
            ~stages:scenario.Aspipe_core.Scenario.stages ~mapping:[| 0; 1; 2 |]
            ~input:scenario.Aspipe_core.Scenario.input ()
        in
        let b = Buffer.create 16384 in
        Array.iter
          (fun (item, t) -> Printf.bprintf b " %d:%h" item t)
          (Aspipe_grid.Trace.completions trace);
        Array.iter
          (fun (item, t) -> Printf.bprintf b " %d:%h" item t)
          (Aspipe_grid.Trace.sojourns trace);
        Digest.to_hex (Digest.string (Buffer.contents b))
      in
      Alcotest.(check string) (name ^ " trace digest") expected_trace (run ());
      let buffer = Buffer.create 65536 in
      Alcotest.(check string) (name ^ " observed trace digest") expected_trace
        (run ~sink:(Aspipe_obs.Jsonl.sink_to_buffer buffer) ());
      Alcotest.(check int) (name ^ " stream length") expected_bytes (Buffer.length buffer);
      Alcotest.(check string) (name ^ " stream digest") expected_stream
        (Digest.to_hex (Digest.string (Buffer.contents buffer))))
    golden_bounded

(* Golden forecasts of the monitor: a serve_day-shaped estate (5 equal
   nodes, so 5 node, 5 user-link and 20 link sensors) under the default
   sensor (noise and dropout) for 200 ticks of 5 s, with node loads and
   link qualities moving and one node down for a while. After every tick
   each sensor's forecast is rendered as a hex float; the digest covers
   all 6,000 renderings and the sample count. *)
let golden_monitor = ("2afe41ab12a071a1bf8029e8d757ec1e", 200, 5918)

let test_golden_monitor () =
  let module Topology = Aspipe_grid.Topology in
  let module Monitor = Aspipe_grid.Monitor in
  let engine = Engine.create () in
  let topo = Topology.uniform engine ~n:5 ~speed:10.0 ~latency:0.01 ~bandwidth:1e7 () in
  let horizon = 1000.0 in
  let load_rng = Aspipe_util.Rng.create 5 in
  Aspipe_grid.Loadgen.apply_until ~horizon topo 0
    (Aspipe_grid.Loadgen.Sine { period = 300.0; base = 0.6; amplitude = 0.35; sample_every = 7.0 });
  Aspipe_grid.Loadgen.apply_until ~horizon topo 2
    (Aspipe_grid.Loadgen.Step { at = 300.0; level = 0.4 });
  Aspipe_grid.Loadgen.apply_until ~rng:load_rng ~horizon topo 3
    (Aspipe_grid.Loadgen.Random_walk { every = 11.0; sigma = 0.1; lo = 0.2; hi = 1.0 });
  Engine.schedule engine ~delay:400.0 (fun () ->
      Aspipe_grid.Link.set_quality (Topology.link topo ~src:1 ~dst:2) 0.5;
      Aspipe_grid.Link.set_quality (Topology.user_link topo 3) 0.7);
  Engine.schedule engine ~delay:600.0 (fun () ->
      Aspipe_grid.Node.set_up (Topology.node topo 4) false);
  Engine.schedule engine ~delay:700.0 (fun () ->
      Aspipe_grid.Node.set_up (Topology.node topo 4) true);
  let monitor =
    Monitor.create ~rng:(Aspipe_util.Rng.create 17) ~every:5.0 ~horizon topo
  in
  let b = Buffer.create (1 lsl 17) in
  let ticks = ref 0 in
  (* Scheduled after the monitor's own periodic, so it fires after each tick. *)
  Engine.periodic engine ~every:5.0 (fun () ->
      incr ticks;
      for i = 0 to 4 do
        Printf.bprintf b "%h %h " (Monitor.node_forecast monitor i)
          (Monitor.user_link_forecast monitor i);
        for j = 0 to 4 do
          if i <> j then Printf.bprintf b "%h " (Monitor.link_forecast monitor ~src:i ~dst:j)
        done
      done;
      Buffer.add_char b '\n';
      Engine.now engine < horizon);
  Engine.run engine;
  Printf.bprintf b "samples %d" (Monitor.samples_taken monitor);
  let name, expected_ticks, expected_samples = golden_monitor in
  Alcotest.(check int) "ticks" expected_ticks !ticks;
  Alcotest.(check int) "samples" expected_samples (Monitor.samples_taken monitor);
  Alcotest.(check string) "forecast digest" name (Digest.to_hex (Digest.string (Buffer.contents b)))

(* Golden report floats of Serve.run on the benchmark's serve_day world
   (4 unit stages on 5 equal nodes, E21's diurnal demand) over a 2,400 s
   day, under latency_gradient from the cheapest mapping and under static
   from the best one: every quantile, the mean and maximum sojourn,
   attainment and node-seconds, as hex floats. *)
let golden_serve_report =
  [ ("latency_gradient",
     "3785/3785 p50 0x1.11ba9af5e83p-1 p99 0x1.459939195e08p+2 p999 0x1.d06de41b7da8p+2 \
      max 0x1.db8d9a207498p+2 mean 0x1.d80b5c07d14cp-1 attainment 0x1.f99999999999ap-1 \
      node-s 0x1.decp+11");
    ("static",
     "3785/3785 p50 0x1.d1eb851eb8p-2 p99 0x1.4796efce274p-1 p999 0x1.8ca75fd89ccp-1 \
      max 0x1.9898412b2348p-1 mean 0x1.e1f4b3857763ap-2 attainment 0x1p+0 node-s 0x1.2cp+13") ]

let test_golden_serve_report () =
  let module Serve = Aspipe_serve in
  let period = 2400.0 in
  let scenario =
    Aspipe_core.Scenario.make ~name:"serve-day"
      ~make_topo:(fun engine ->
        Aspipe_grid.Topology.uniform engine ~n:5 ~speed:10.0 ~latency:0.01 ~bandwidth:1e7 ())
      ~stages:
        (Array.init 4 (fun i ->
             Aspipe_skel.Stage.make ~name:(Printf.sprintf "srv%d" i) ~output_bytes:1e4
               ~state_bytes:1e5 ~work:(Aspipe_util.Variate.Constant 1.0) ()))
      ~input:(Aspipe_skel.Stream_spec.make ~item_bytes:1e4 ~items:1 ())
      ~horizon:period ()
  in
  List.iter
    (fun (name, expected) ->
      let autoscaler, initial =
        match name with
        | "static" -> (Serve.Autoscaler.static (), `Best)
        | _ -> (Serve.Autoscaler.latency_gradient (), `Cheapest)
      in
      let r =
        Serve.Serve.run ~initial ~autoscaler
          ~arrival:(Serve.Arrival.diurnal ~base:1.6 ~amplitude:1.2 ~period)
          ~slo:(Serve.Slo.spec ~target_quantile:0.95 ~threshold:6.0 ~window:30.0)
          ~provision_rate:1.6 ~scenario ~seed:7 ()
      in
      let got =
        Printf.sprintf "%d/%d p50 %h p99 %h p999 %h max %h mean %h attainment %h node-s %h"
          r.Serve.Serve.completions r.Serve.Serve.arrivals r.Serve.Serve.p50 r.Serve.Serve.p99
          r.Serve.Serve.p999 r.Serve.Serve.max_sojourn r.Serve.Serve.mean_sojourn
          r.Serve.Serve.attainment r.Serve.Serve.node_seconds
      in
      Alcotest.(check string) (name ^ " report") expected got)
    golden_serve_report

let () =
  Alcotest.run "perf"
    [
      ( "allocation",
        [
          Alcotest.test_case "sink-free run emits nothing" `Quick
            test_sink_free_run_emits_nothing;
          Alcotest.test_case "unobserved allocates less" `Quick
            test_unobserved_run_allocates_less;
          Alcotest.test_case "guarded emit budget" `Quick
            test_guarded_emit_allocation_budget;
          Alcotest.test_case "pqueue cycle budget" `Quick
            test_pqueue_cycle_allocation_budget;
          Alcotest.test_case "ring pump budget" `Quick test_ring_pump_allocation_budget;
          Alcotest.test_case "forecast ensemble budget" `Quick
            test_forecast_ensemble_allocation_budget;
          Alcotest.test_case "monitor sensing budget" `Quick test_monitor_allocation_budget;
          Alcotest.test_case "cheapest walk budget" `Quick test_cheapest_allocation_budget;
          Alcotest.test_case "ctmc power solve budget" `Quick test_ctmc_power_allocation_budget;
          Alcotest.test_case "control sink event budget" `Quick
            test_adaptive_control_sink_event_budget;
          Alcotest.test_case "rng draw budget" `Quick test_rng_allocation_budget;
          Alcotest.test_case "keyed work budget" `Quick test_skel_sim_keyed_work_budget;
        ] );
      ( "golden",
        [
          Alcotest.test_case "campaign jobs 1" `Quick test_golden_campaign_jobs1;
          Alcotest.test_case "campaign jobs 4" `Quick test_golden_campaign_jobs4;
          Alcotest.test_case "jsonl streams" `Quick test_golden_jsonl;
          Alcotest.test_case "serving and failover streams" `Quick test_golden_streams;
          Alcotest.test_case "adaptive_search decisions" `Quick test_golden_decisions;
          Alcotest.test_case "bounded queues and ties" `Quick test_golden_bounded;
          Alcotest.test_case "monitor forecasts" `Quick test_golden_monitor;
          Alcotest.test_case "serving report floats" `Quick test_golden_serve_report;
        ] );
    ]
