(* Tests for the skeleton library: stage/stream descriptors, the simulation
   backend (including migration and bounded buffers) and typed pipelines. *)

module Engine = Aspipe_des.Engine
module Topology = Aspipe_grid.Topology
module Node = Aspipe_grid.Node
module Trace = Aspipe_grid.Trace
module Stage = Aspipe_skel.Stage
module Stream_spec = Aspipe_skel.Stream_spec
module Skel_sim = Aspipe_skel.Skel_sim
module Pipe = Aspipe_skel.Pipe
module Rng = Aspipe_util.Rng
module Variate = Aspipe_util.Variate

let check_float = Alcotest.(check (float 1e-9))
let check_close ?(eps = 1e-6) msg a b = Alcotest.(check (float eps)) msg a b

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ---------------------------------------------------------------- Stage *)

let test_stage_balanced () =
  let stages = Stage.balanced ~n:3 ~work:2.0 () in
  Alcotest.(check int) "count" 3 (Array.length stages);
  Array.iter (fun s -> check_float "mean work" 2.0 (Stage.mean_work s)) stages

let test_stage_imbalanced () =
  let stages = Stage.imbalanced ~n:4 ~work:1.0 ~hot_stage:2 ~factor:5.0 () in
  check_float "hot stage" 5.0 (Stage.mean_work stages.(2));
  check_float "cold stage" 1.0 (Stage.mean_work stages.(0));
  Alcotest.check_raises "hot index out of range"
    (Invalid_argument "Stage.imbalanced: hot stage out of range") (fun () ->
      ignore (Stage.imbalanced ~n:2 ~work:1.0 ~hot_stage:5 ~factor:2.0 ()))

(* A bad size is refused by name at construction: a NaN passes every
   [< 0.0] test, and would otherwise die inside the engine mid-run. *)
let test_stage_make_validation () =
  let refused field ?output_bytes ?state_bytes label =
    Alcotest.check_raises label
      (Invalid_argument (Printf.sprintf "Stage.make: %s must be finite and non-negative" field))
      (fun () -> ignore (Stage.make ?output_bytes ?state_bytes ~work:(Variate.Constant 1.0) ()))
  in
  refused "output_bytes" ~output_bytes:(-1.0) "negative output";
  refused "output_bytes" ~output_bytes:nan "nan output";
  refused "output_bytes" ~output_bytes:infinity "infinite output";
  refused "state_bytes" ~state_bytes:(-1.0) "negative state";
  refused "state_bytes" ~state_bytes:nan "nan state";
  refused "state_bytes" ~state_bytes:infinity "infinite state"

(* ---------------------------------------------------------- Stream_spec *)

let test_stream_immediate () =
  let spec = Stream_spec.make ~items:5 () in
  let times = Stream_spec.arrival_times spec (Rng.create 1) in
  Alcotest.(check (array (float 0.0))) "all at zero" (Array.make 5 0.0) times

let test_stream_spaced () =
  let spec = Stream_spec.make ~arrival:(Stream_spec.Spaced 0.5) ~items:4 () in
  let times = Stream_spec.arrival_times spec (Rng.create 1) in
  Alcotest.(check (array (float 1e-9))) "regular spacing" [| 0.0; 0.5; 1.0; 1.5 |] times

let test_stream_poisson_monotone () =
  let spec = Stream_spec.make ~arrival:(Stream_spec.Poisson 2.0) ~items:100 () in
  let times = Stream_spec.arrival_times spec (Rng.create 2) in
  Alcotest.(check int) "count" 100 (Array.length times);
  Array.iteri
    (fun i t ->
      if i > 0 && t < times.(i - 1) then Alcotest.fail "arrivals must be non-decreasing";
      if t <= 0.0 then Alcotest.fail "arrivals must be positive")
    times

let test_stream_invalid () =
  Alcotest.check_raises "items 0" (Invalid_argument "Stream_spec.make: items must be positive")
    (fun () -> ignore (Stream_spec.make ~items:0 ()));
  Alcotest.check_raises "bad rate"
    (Invalid_argument "Stream_spec.make: Poisson rate must be positive") (fun () ->
      ignore (Stream_spec.make ~arrival:(Stream_spec.Poisson 0.0) ~items:1 ()));
  (* NaN and infinite values are refused by name too, not left to fail
     inside the engine once arrivals are scheduled lazily. *)
  let refused message ?arrival ?item_bytes label =
    Alcotest.check_raises label (Invalid_argument ("Stream_spec.make: " ^ message)) (fun () ->
        ignore (Stream_spec.make ?arrival ?item_bytes ~items:3 ()))
  in
  refused "Poisson rate must be positive" ~arrival:(Stream_spec.Poisson nan) "nan rate";
  List.iter
    (fun (label, dt) ->
      refused "Spaced interval must be finite and non-negative" ~arrival:(Stream_spec.Spaced dt)
        label)
    [ ("negative spacing", -1.0); ("nan spacing", nan); ("infinite spacing", infinity) ];
  List.iter
    (fun (label, item_bytes) ->
      refused "item_bytes must be finite and non-negative" ~item_bytes label)
    [ ("negative item size", -1.0); ("nan item size", nan); ("infinite item size", infinity) ]

(* ------------------------------------------------------------- Skel_sim *)

(* A tiny world: [n] nodes at speed 10, negligible network. *)
let quiet_topo ?(n = 3) engine =
  Topology.uniform engine ~n ~speed:10.0 ~latency:1e-4 ~bandwidth:1e9 ()

(* A trace subscribed to the engine bus: the full stream, per-service and
   per-transfer records included. A trace passed to [Skel_sim.create]
   keeps only completions, entry instants and arrival stamps. *)
let subscribed_trace engine =
  let trace = Trace.create () in
  Trace.subscribe trace (Engine.bus engine);
  trace

let run_sim ?(n = 3) ?(items = 10) ?arrival ~stages ~mapping () =
  let engine = Engine.create () in
  let topo = quiet_topo ~n engine in
  let input = Stream_spec.make ?arrival ~items ~item_bytes:10.0 () in
  let trace = subscribed_trace engine in
  let sim = Skel_sim.create ~rng:(Rng.create 7) ~topo ~stages ~mapping ~input () in
  Skel_sim.run_to_completion sim;
  (sim, trace)

let test_sim_all_items_complete () =
  let stages = Stage.balanced ~n:3 ~work:1.0 () in
  let sim, trace = run_sim ~items:20 ~stages ~mapping:[| 0; 1; 2 |] () in
  Alcotest.(check bool) "finished" true (Skel_sim.finished sim);
  Alcotest.(check int) "all items out" 20 (Trace.items_completed trace)

let test_sim_fifo_output () =
  let stages = Stage.balanced ~n:2 ~work:1.0 () in
  let _, trace = run_sim ~items:15 ~stages ~mapping:[| 0; 1 |] () in
  let items = Array.map fst (Trace.completions trace) in
  Alcotest.(check (array int)) "items depart in order" (Array.init 15 Fun.id) items

let test_sim_conservation () =
  let stages = Stage.balanced ~n:4 ~work:0.5 () in
  let _, trace = run_sim ~items:12 ~stages ~mapping:[| 0; 1; 2; 0 |] () in
  Alcotest.(check int) "services = items x stages" (12 * 4) (List.length (Trace.services trace));
  Alcotest.(check int) "transfers = items x (stages-1)" (12 * 3)
    (List.length (Trace.transfers trace))

let test_sim_services_respect_mapping () =
  let stages = Stage.balanced ~n:3 ~work:1.0 () in
  let mapping = [| 2; 0; 2 |] in
  let _, trace = run_sim ~items:5 ~stages ~mapping () in
  List.iter
    (fun (s : Trace.service) ->
      Alcotest.(check int)
        (Printf.sprintf "stage %d on its mapped node" s.Trace.stage)
        mapping.(s.Trace.stage) s.Trace.node)
    (Trace.services trace)

let test_sim_single_stage_makespan () =
  (* 10 items of work 5 on a speed-10 node: 0.5 s each, serialized. *)
  let stages = [| Stage.make ~output_bytes:10.0 ~work:(Variate.Constant 5.0) () |] in
  let _, trace = run_sim ~n:1 ~items:10 ~stages ~mapping:[| 0 |] () in
  check_close ~eps:0.01 "makespan ~ items x service" 5.0 (Trace.makespan trace)

let test_sim_colocation_halves_throughput () =
  let stages = Stage.balanced ~n:2 ~work:1.0 () in
  let _, spread = run_sim ~items:60 ~stages ~mapping:[| 0; 1 |] () in
  let _, packed = run_sim ~items:60 ~stages ~mapping:[| 0; 0 |] () in
  let ratio = Trace.makespan packed /. Trace.makespan spread in
  Alcotest.(check bool)
    (Printf.sprintf "colocated run ~2x slower (ratio %.2f)" ratio)
    true
    (ratio > 1.7 && ratio < 2.3)

let test_sim_slow_link_throttles () =
  (* Blocking output moves: a 0.3 s link inflates the stage cycle to
     0.1 + 0.3 = 0.4 s -> throughput 2.5/s instead of 10/s. *)
  let engine = Engine.create () in
  let topo = Topology.uniform engine ~n:2 ~speed:10.0 ~latency:0.3 ~bandwidth:1e9 () in
  let stages = Stage_gen.balanced ~n:2 ~work:1.0 ~output_bytes:10.0 () in
  let input = Stream_spec.make ~items:50 ~item_bytes:10.0 () in
  let trace = Trace.create () in
  let sim = Skel_sim.create ~rng:(Rng.create 7) ~topo ~stages ~mapping:[| 0; 1 |] ~input ~trace () in
  Skel_sim.run_to_completion sim;
  let throughput = Trace.throughput_after trace (0.1 *. Trace.makespan trace) in
  check_close ~eps:0.2 "cycle-limited throughput" 2.5 throughput

let test_sim_availability_step_slows_run () =
  let run ~with_load =
    let engine = Engine.create () in
    let topo = quiet_topo ~n:2 engine in
    if with_load then
      ignore
        (Engine.schedule engine ~delay:1.0 (fun () ->
             Node.set_availability (Topology.node topo 0) 0.25));
    let stages = Stage.balanced ~n:2 ~work:1.0 () in
    let input = Stream_spec.make ~items:40 ~item_bytes:10.0 () in
    let trace = Trace.create () in
    let sim =
      Skel_sim.create ~rng:(Rng.create 7) ~topo ~stages ~mapping:[| 0; 1 |] ~input ~trace ()
    in
    Skel_sim.run_to_completion sim;
    Trace.makespan trace
  in
  let clean = run ~with_load:false and loaded = run ~with_load:true in
  Alcotest.(check bool)
    (Printf.sprintf "background load slows the run (%.2f vs %.2f)" clean loaded)
    true (loaded > 2.0 *. clean)

let test_sim_remap_moves_services () =
  let engine = Engine.create () in
  let topo = quiet_topo ~n:2 engine in
  let stages = Stage_gen.balanced ~n:2 ~work:1.0 ~state_bytes:100.0 () in
  let input = Stream_spec.make ~items:30 ~item_bytes:10.0 () in
  let trace = subscribed_trace engine in
  let sim = Skel_sim.create ~rng:(Rng.create 7) ~topo ~stages ~mapping:[| 0; 0 |] ~input () in
  ignore (Engine.schedule engine ~delay:1.0 (fun () -> ignore (Skel_sim.remap sim [| 0; 1 |])));
  Skel_sim.run_to_completion sim;
  Alcotest.(check (array int)) "mapping updated" [| 0; 1 |] (Skel_sim.mapping sim);
  Alcotest.(check int) "all items complete across the migration" 30 (Trace.items_completed trace);
  let stage1_nodes =
    List.filter_map
      (fun (s : Trace.service) -> if s.Trace.stage = 1 then Some s.Trace.node else None)
      (Trace.services trace)
  in
  Alcotest.(check bool) "served on old node first" true (List.mem 0 stage1_nodes);
  Alcotest.(check bool) "served on new node later" true (List.mem 1 stage1_nodes);
  let items = Array.map fst (Trace.completions trace) in
  Alcotest.(check (array int)) "order preserved" (Array.init 30 Fun.id) items

let test_sim_remap_same_mapping_free () =
  let engine = Engine.create () in
  let topo = quiet_topo engine in
  ignore engine;
  let stages = Stage.balanced ~n:2 ~work:1.0 () in
  let input = Stream_spec.make ~items:5 ~item_bytes:10.0 () in
  let sim =
    Skel_sim.create ~rng:(Rng.create 7) ~topo ~stages ~mapping:[| 0; 1 |] ~input
      ~trace:(Trace.create ()) ()
  in
  check_float "no bytes move" 0.0 (Skel_sim.remap sim [| 0; 1 |]);
  Alcotest.(check bool) "not migrating" false (Skel_sim.migrating sim)

(* A stage on a crashed node has no state to ship: remapping it
   re-instantiates the stage at its new node at once, moves no bytes, and
   the run still completes every item. *)
let test_sim_remap_off_dead_node () =
  let engine = Engine.create () in
  let topo = quiet_topo engine in
  let stages = Stage_gen.balanced ~n:2 ~work:1.0 ~state_bytes:1e6 () in
  let input = Stream_spec.make ~items:10 ~item_bytes:10.0 () in
  let trace = Trace.create () in
  let sim =
    Skel_sim.create ~rng:(Rng.create 7) ~topo ~stages ~mapping:[| 0; 1 |] ~input ~trace ()
  in
  let moved = ref nan in
  ignore
    (Engine.schedule_at engine ~time:0.35 (fun () ->
         Node.set_up (Topology.node topo 0) false;
         moved := Skel_sim.remap sim [| 2; 1 |];
         Alcotest.(check (array int)) "stage 0 lives on node 2 at once" [| 2; 1 |]
           (Skel_sim.mapping sim);
         Alcotest.(check bool) "nothing migrating" false (Skel_sim.migrating sim)));
  (match Skel_sim.run sim with
  | `Completed -> ()
  | `Stalled message -> Alcotest.fail message);
  check_float "no bytes leave the dead node" 0.0 !moved;
  Alcotest.(check int) "every item completes" 10 (Trace.items_completed trace)

let test_sim_remap_while_migrating_rejected () =
  let engine = Engine.create () in
  (* A slow link so the migration is still in flight when we re-remap. *)
  let topo = Topology.uniform engine ~n:2 ~speed:10.0 ~latency:5.0 ~bandwidth:1e3 () in
  let stages = Stage_gen.balanced ~n:2 ~work:1.0 ~state_bytes:1e4 () in
  let input = Stream_spec.make ~items:5 ~item_bytes:10.0 () in
  let sim =
    Skel_sim.create ~rng:(Rng.create 7) ~topo ~stages ~mapping:[| 0; 0 |] ~input
      ~trace:(Trace.create ()) ()
  in
  ignore (Skel_sim.remap sim [| 0; 1 |]);
  Alcotest.(check bool) "migration in flight" true (Skel_sim.migrating sim);
  Alcotest.check_raises "double migration rejected"
    (Invalid_argument "Skel_sim.remap: stage already migrating") (fun () ->
      ignore (Skel_sim.remap sim [| 0; 0 |]))

let test_sim_invalid_mapping () =
  let engine = Engine.create () in
  let topo = quiet_topo engine in
  let stages = Stage.balanced ~n:2 ~work:1.0 () in
  let input = Stream_spec.make ~items:1 () in
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Skel_sim: mapping length must equal stage count") (fun () ->
      ignore
        (Skel_sim.create ~rng:(Rng.create 1) ~topo ~stages ~mapping:[| 0 |] ~input
           ~trace:(Trace.create ()) ()));
  Alcotest.check_raises "unknown node" (Invalid_argument "Skel_sim: mapping names an unknown node")
    (fun () ->
      ignore
        (Skel_sim.create ~rng:(Rng.create 1) ~topo ~stages ~mapping:[| 0; 9 |] ~input
           ~trace:(Trace.create ()) ()));
  (* Open-stream stamps live in a column indexed by item id. *)
  let sim =
    Skel_sim.create ~arrivals:`External ~rng:(Rng.create 1) ~topo ~stages ~mapping:[| 0; 1 |]
      ~input ()
  in
  Alcotest.check_raises "negative item id"
    (Invalid_argument "Skel_sim.inject: item ids must be non-negative") (fun () ->
      Skel_sim.inject sim ~item:(-1))

let test_sim_deterministic () =
  let stages = Stage.balanced ~n:3 ~work:1.0 () in
  let _, t1 = run_sim ~items:25 ~stages ~mapping:[| 0; 1; 2 |] () in
  let _, t2 = run_sim ~items:25 ~stages ~mapping:[| 0; 1; 2 |] () in
  check_float "same seed, same makespan" (Trace.makespan t1) (Trace.makespan t2)

let test_sim_spaced_arrivals_pace_output () =
  (* Arrivals slower than the service rate: output paced by arrivals. *)
  let stages = Stage.balanced ~n:2 ~work:1.0 () in
  let _, trace =
    run_sim ~items:20 ~arrival:(Stream_spec.Spaced 1.0) ~stages ~mapping:[| 0; 1 |] ()
  in
  check_close ~eps:0.1 "makespan tracks the arrival process" 19.2 (Trace.makespan trace)

let test_sim_execute_oneshot () =
  let engine = Engine.create () in
  let topo = quiet_topo engine in
  let stages = Stage.balanced ~n:2 ~work:1.0 () in
  let trace =
    Skel_sim.execute ~topo ~stages ~mapping:[| 0; 1 |]
      ~input:(Stream_spec.make ~items:8 ~item_bytes:10.0 ())
      ()
  in
  Alcotest.(check int) "one-shot runs to completion" 8 (Trace.items_completed trace)



let test_sim_total_starvation_and_recovery () =
  (* The node feeding the pipeline loses its CPU entirely for 10 s; the
     in-flight service must freeze (not finish at a bogus time) and every
     item must still drain after recovery. *)
  let engine = Engine.create () in
  let topo = quiet_topo ~n:2 engine in
  ignore
    (Engine.schedule engine ~delay:0.55 (fun () ->
         Node.set_availability (Topology.node topo 0) 0.0));
  ignore
    (Engine.schedule engine ~delay:10.55 (fun () ->
         Node.set_availability (Topology.node topo 0) 1.0));
  let stages = Stage.balanced ~n:2 ~work:1.0 () in
  let input = Stream_spec.make ~items:10 ~item_bytes:10.0 () in
  let trace = Trace.create () in
  let sim = Skel_sim.create ~rng:(Rng.create 7) ~topo ~stages ~mapping:[| 0; 1 |] ~input ~trace () in
  Skel_sim.run_to_completion sim;
  Alcotest.(check int) "all items survive the outage" 10 (Trace.items_completed trace);
  (* Without the outage the run takes ~1.2 s; with it, at least the 10 s gap. *)
  Alcotest.(check bool) "makespan includes the stall" true (Trace.makespan trace > 10.0);
  Alcotest.(check bool) "but not much more" true (Trace.makespan trace < 13.0)

let test_sim_conservation_under_random_dynamics =
  qtest ~count:25 "no item is ever lost, duplicated or reordered"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let engine = Engine.create () in
      let topo = quiet_topo ~n:3 engine in
      (* Random availability churn on every node. *)
      for node = 0 to 2 do
        Aspipe_grid.Loadgen.apply_until ~rng:(Rng.split rng) ~horizon:50.0 topo node
          (Aspipe_grid.Loadgen.Random_walk { every = 0.5; sigma = 0.2; lo = 0.05; hi = 1.0 })
      done;
      let stages = Stage.balanced ~n:3 ~work:0.5 () in
      let items = 30 in
      let input = Stream_spec.make ~items ~item_bytes:10.0 () in
      let trace = subscribed_trace engine in
      let sim =
        Skel_sim.create ~rng:(Rng.split rng) ~topo ~stages ~mapping:[| 0; 1; 2 |] ~input ()
      in
      (* And a random remap mid-flight. *)
      ignore
        (Engine.schedule engine ~delay:1.0 (fun () ->
             if not (Skel_sim.migrating sim) then
               ignore (Skel_sim.remap sim [| 2; 1; 0 |])));
      Skel_sim.run_to_completion sim;
      Trace.items_completed trace = items
      && Array.map fst (Trace.completions trace) = Array.init items Fun.id
      && List.length (Trace.services trace) = items * 3)

(* A trace passed to [Skel_sim.create] (recorded directly) against one
   subscribed to the same run's bus (rebuilt from events): the summaries
   must agree bit for bit. Four kinds of run: a closed batch with a remap,
   an open stream of injected items (sojourns from arrival stamps), a
   crash followed by a restore in place, and a crash answered by a
   failover; both crashes catch a queue at stage 0. The drivers' committed
   adaptations are compared in test_core and test_serve. *)
let test_sim_passed_trace_matches_subscribed =
  qtest ~count:40 "passed trace = subscribed trace"
    QCheck2.Gen.(triple (int_range 0 3) (int_range 0 10_000) (int_range 1 4))
    (fun (kind, seed, stage_count) ->
      let rng = Rng.create seed in
      let engine = Engine.create () in
      let topo = quiet_topo ~n:3 engine in
      let stages =
        Array.init stage_count (fun i ->
            Stage.make ~name:(Printf.sprintf "s%d" i) ~output_bytes:10.0 ~state_bytes:100.0
              ~work:(Variate.Exponential { rate = 0.4 }) ())
      in
      let items = 25 in
      let input = Stream_spec.make ~items ~item_bytes:10.0 () in
      let mapping = Array.init stage_count (fun i -> i mod 3) in
      let subscribed = subscribed_trace engine in
      let passed = Trace.create () in
      let arrivals = if kind = 1 then `External else `From_input in
      let sim =
        Skel_sim.create ~arrivals ~rng:(Rng.split rng) ~topo ~stages ~mapping ~input
          ~trace:passed ()
      in
      let at time f = ignore (Engine.schedule_at engine ~time f) in
      let node0 = Topology.node topo 0 in
      (match kind with
      | 0 ->
          let shifted = Array.map (fun n -> (n + 1) mod 3) mapping in
          at 1.5 (fun () -> ignore (Skel_sim.remap sim shifted))
      | 1 ->
          let t = ref 0.0 in
          for item = 0 to items - 1 do
            t := !t +. (0.05 +. (0.4 *. Rng.float rng));
            at !t (fun () -> Skel_sim.inject sim ~item)
          done
      | 2 ->
          at 1.0 (fun () -> Node.set_up node0 false);
          at 3.0 (fun () -> Node.set_up node0 true)
      | _ ->
          at 1.0 (fun () -> Node.set_up node0 false);
          at 1.5 (fun () -> ignore (Skel_sim.remap sim (Array.map (fun _ -> 1) mapping))));
      (* An open stream is finished whenever nothing is in flight, so it is
         drained by running the engine dry, as the serving driver does. *)
      if kind = 1 then Engine.run engine
      else begin
        match Skel_sim.run sim with
        | `Completed -> ()
        | `Stalled message -> QCheck2.Test.fail_report message
      end;
      if Trace.items_completed passed <> items then
        QCheck2.Test.fail_reportf "kind %d seed %d: %d of %d items completed" kind seed
          (Trace.items_completed passed) items;
      if kind >= 2 && Skel_sim.items_lost_total sim = 0 then
        QCheck2.Test.fail_reportf "kind %d seed %d: the crash lost no item" kind seed;
      (match Trace_diff.differs passed subscribed with
      | Some what ->
          QCheck2.Test.fail_reportf "kind %d seed %d stages %d: %s differ" kind seed stage_count
            what
      | None -> ());
      true)

(* Work is recomputed from (seed, item, stage) at every dispatch; nothing
   memoises it. An item lost in a crash and re-dispatched when its node
   recovers must still cost what it costs in a fault-free run. Each stage
   has a node of its own, so a service lasts its work over the node's
   speed. *)
let test_sim_redispatch_costs_the_same () =
  let run ~crash =
    let engine = Engine.create () in
    let topo = quiet_topo ~n:3 engine in
    let stages =
      Array.init 3 (fun i ->
          Stage.make ~name:(Printf.sprintf "s%d" i) ~output_bytes:10.0 ~state_bytes:100.0
            ~work:(Variate.Lognormal { mu = -0.72; sigma = 1.2 }) ())
    in
    let input = Stream_spec.make ~items:30 ~item_bytes:10.0 () in
    let trace = subscribed_trace engine in
    let redispatched = ref [] in
    Aspipe_obs.Bus.subscribe (Engine.bus engine) (fun (e : Aspipe_obs.Event.t) ->
           match e.Aspipe_obs.Event.payload with
           | Aspipe_obs.Event.Item_redispatched { item; stage; _ } ->
               redispatched := (item, stage) :: !redispatched
           | _ -> ());
    let sim =
      Skel_sim.create ~rng:(Rng.create 17) ~topo ~stages ~mapping:[| 0; 1; 2 |] ~input ()
    in
    if crash then begin
      let node1 = Topology.node topo 1 in
      ignore (Engine.schedule_at engine ~time:1.0 (fun () -> Node.set_up node1 false));
      ignore (Engine.schedule_at engine ~time:3.0 (fun () -> Node.set_up node1 true))
    end;
    Skel_sim.run_to_completion sim;
    let durations = Hashtbl.create 128 in
    List.iter
      (fun (s : Trace.service) ->
        Hashtbl.replace durations (s.Trace.item, s.Trace.stage) (s.Trace.finish -. s.Trace.start))
      (Trace.services trace);
    Alcotest.(check int) "one service per item and stage" 90 (List.length (Trace.services trace));
    (durations, !redispatched)
  in
  let clean, none = run ~crash:false in
  let faulty, redispatched = run ~crash:true in
  Alcotest.(check int) "nothing re-dispatched without a crash" 0 (List.length none);
  if redispatched = [] then Alcotest.fail "the crash re-dispatched no item";
  List.iter
    (fun (item, stage) ->
      check_close ~eps:1e-9
        (Printf.sprintf "re-dispatched item %d at stage %d" item stage)
        (Hashtbl.find clean (item, stage))
        (Hashtbl.find faulty (item, stage)))
    redispatched;
  Hashtbl.iter
    (fun key d -> check_close ~eps:1e-9 "every service" d (Hashtbl.find faulty key))
    clean

(* ------------------------------------------------------- bounded buffers *)

let test_sim_buffer_capacity_validated () =
  let engine = Engine.create () in
  let topo = quiet_topo engine in
  let stages = Stage.balanced ~n:2 ~work:1.0 () in
  let input = Stream_spec.make ~items:1 () in
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Skel_sim: queue capacity must be at least 1") (fun () ->
      ignore
        (Skel_sim.create ~queue_capacity:0 ~rng:(Rng.create 1) ~topo ~stages ~mapping:[| 0; 1 |]
           ~input ~trace:(Trace.create ()) ()))

let buffered_makespan capacity =
  let engine = Engine.create () in
  let topo = quiet_topo ~n:3 engine in
  (* Bursty middle stage so buffering matters. *)
  let stages =
    [|
      Stage.make ~output_bytes:10.0 ~work:(Variate.Constant 1.0) ();
      Stage.make ~output_bytes:10.0 ~work:(Variate.Lognormal { mu = -0.72; sigma = 1.2 }) ();
      Stage.make ~output_bytes:10.0 ~work:(Variate.Constant 1.0) ();
    |]
  in
  let input = Stream_spec.make ~items:200 ~item_bytes:10.0 () in
  let trace = Trace.create () in
  let sim =
    Skel_sim.create ?queue_capacity:capacity ~rng:(Rng.create 5) ~topo ~stages
      ~mapping:[| 0; 1; 2 |] ~input ~trace ()
  in
  Skel_sim.run_to_completion sim;
  Alcotest.(check int) "all items complete" 200 (Trace.items_completed trace);
  Trace.makespan trace

let test_sim_buffer_monotone () =
  (* Work draws are keyed on item identity, so a bigger buffer can only help:
     makespans must be non-increasing in capacity. *)
  let m1 = buffered_makespan (Some 1) in
  let m4 = buffered_makespan (Some 4) in
  let unbounded = buffered_makespan None in
  Alcotest.(check bool)
    (Printf.sprintf "cap1 %.2f >= cap4 %.2f >= unbounded %.2f" m1 m4 unbounded)
    true
    (m1 >= m4 -. 1e-9 && m4 >= unbounded -. 1e-9);
  Alcotest.(check bool) "buffers actually matter on bursty stages" true
    (m1 > unbounded *. 1.02)

let test_sim_work_draws_paired_across_mappings () =
  (* The same item must cost the same under different mappings. *)
  let run mapping =
    let engine = Engine.create () in
    let topo = quiet_topo ~n:3 engine in
    let stages = [| Stage.make ~work:(Variate.Exponential { rate = 1.0 }) () |] in
    let input = Stream_spec.make ~items:20 ~item_bytes:10.0 () in
    let trace = subscribed_trace engine in
    let sim = Skel_sim.create ~rng:(Rng.create 9) ~topo ~stages ~mapping ~input () in
    Skel_sim.run_to_completion sim;
    List.map
      (fun (s : Trace.service) -> (s.Trace.item, s.Trace.finish -. s.Trace.start))
      (Trace.services trace)
    |> List.sort compare
  in
  Alcotest.(check bool) "identical per-item service durations" true
    (run [| 0 |] = run [| 2 |])

(* ------------------------------------- the task farm: one-stage Repl_sim *)

module Repl_sim = Aspipe_skel.Repl_sim

let farm_task ?(work = Variate.Constant 1.0) () =
  Stage.make ~name:"task" ~output_bytes:10.0 ~state_bytes:0.0 ~work ()

let run_farm ?(items = 40) ?(dispatch = Repl_sim.Round_robin) ?(speeds = [| 10.0; 10.0 |])
    ~workers () =
  let engine = Engine.create () in
  let topo = Topology.heterogeneous engine ~speeds ~latency:1e-4 ~bandwidth:1e9 () in
  let input = Stream_spec.make ~items ~item_bytes:10.0 () in
  let trace = Trace.create () in
  let farm =
    Repl_sim.create ~dispatch ~rng:(Rng.create 3) ~topo ~stages:[| farm_task () |]
      ~replicas:[| workers |] ~input ~trace ()
  in
  Repl_sim.run_to_completion farm;
  (farm, trace)

let services_on_node trace ~node =
  List.length (List.filter (fun (s : Trace.service) -> s.Trace.node = node) (Trace.services trace))

let test_farm_completes_in_order () =
  let _, trace = run_farm ~workers:[ 0; 1 ] () in
  Alcotest.(check int) "all items" 40 (Trace.items_completed trace);
  let items = Array.map fst (Trace.completions trace) in
  Alcotest.(check (array int)) "ordered emission" (Array.init 40 Fun.id) items

let test_farm_round_robin_shares () =
  let _, trace = run_farm ~items:40 ~workers:[ 0; 1 ] () in
  Alcotest.(check int) "half on node 0" 20 (services_on_node trace ~node:0);
  Alcotest.(check int) "half on node 1" 20 (services_on_node trace ~node:1)

let test_farm_least_loaded_proportional () =
  (* Node 0 is 4x faster: demand-driven dealing should give it ~4x the work. *)
  let _, trace =
    run_farm ~items:200 ~dispatch:Repl_sim.Least_loaded ~speeds:[| 40.0; 10.0 |]
      ~workers:[ 0; 1 ] ()
  in
  let n0 = services_on_node trace ~node:0 in
  let n1 = services_on_node trace ~node:1 in
  let ratio = Float.of_int n0 /. Float.of_int n1 in
  Alcotest.(check bool) (Printf.sprintf "share ratio ~4 (got %.2f)" ratio) true
    (ratio > 2.5 && ratio < 6.0)

let test_farm_single_worker_serializes () =
  let _, trace = run_farm ~items:30 ~workers:[ 1 ] () in
  Alcotest.(check int) "everything on the lone worker" 30 (services_on_node trace ~node:1);
  Alcotest.(check (float 0.1)) "serialized makespan" 3.0 (Trace.makespan trace)

let test_farm_set_workers_mid_run () =
  let engine = Engine.create () in
  let topo = Topology.uniform engine ~n:3 ~speed:10.0 ~latency:1e-4 ~bandwidth:1e9 () in
  let input =
    Stream_spec.make ~arrival:(Stream_spec.Spaced 0.2) ~items:50 ~item_bytes:10.0 ()
  in
  let trace = Trace.create () in
  let farm =
    Repl_sim.create ~dispatch:Repl_sim.Round_robin ~rng:(Rng.create 4) ~topo
      ~stages:[| farm_task () |] ~replicas:[| [ 0 ] |] ~input ~trace ()
  in
  ignore (Engine.schedule engine ~delay:4.0 (fun () -> Repl_sim.set_replicas farm [| [ 1; 2 ] |]));
  Repl_sim.run_to_completion farm;
  Alcotest.(check (array (list int))) "worker set replaced" [| [ 1; 2 ] |] (Repl_sim.replicas farm);
  Alcotest.(check int) "all items out" 50 (Trace.items_completed trace);
  (* Items 0..20 arrive by t = 4 and go to node 0. The deal's cursor is kept
     across the change, so item 21 goes to the new set's second member. *)
  Alcotest.(check (list int)) "deal continues from its cursor" [ 21; 14; 15 ]
    (List.map (fun node -> services_on_node trace ~node) [ 0; 1; 2 ])

let test_farm_validation () =
  let engine = Engine.create () in
  let topo = Topology.uniform engine ~n:2 ~speed:10.0 ~latency:1e-4 ~bandwidth:1e9 () in
  let input = Stream_spec.make ~items:1 () in
  let create workers =
    Repl_sim.create ~dispatch:Repl_sim.Round_robin ~rng:(Rng.create 1) ~topo
      ~stages:[| farm_task () |] ~replicas:[| workers |] ~input ~trace:(Trace.create ()) ()
  in
  Alcotest.check_raises "empty workers" (Invalid_argument "Repl_sim: empty replica set")
    (fun () -> ignore (create []));
  Alcotest.check_raises "unknown node" (Invalid_argument "Repl_sim: unknown replica node")
    (fun () -> ignore (create [ 7 ]));
  (* A live farm refuses a bad re-selection and keeps its workers. *)
  let farm = create [ 0 ] in
  Alcotest.check_raises "empty re-selection" (Invalid_argument "Repl_sim: empty replica set")
    (fun () -> Repl_sim.set_replicas farm [| [] |]);
  Alcotest.check_raises "one set per stage"
    (Invalid_argument "Repl_sim: one replica set per stage required") (fun () ->
      Repl_sim.set_replicas farm [| [ 0 ]; [ 1 ] |]);
  Alcotest.(check (array (list int))) "workers kept" [| [ 0 ] |] (Repl_sim.replicas farm)

let test_farm_emission_times_non_decreasing () =
  let _, trace =
    run_farm ~items:100 ~dispatch:Repl_sim.Least_loaded ~speeds:[| 30.0; 10.0 |]
      ~workers:[ 0; 1 ] ()
  in
  let times = Array.map snd (Trace.completions trace) in
  Array.iteri
    (fun i t ->
      if i > 0 && t < times.(i - 1) -. 1e-12 then
        Alcotest.fail "ordered emission must have non-decreasing timestamps")
    times

(* ------------------------------------------------------------- Repl_sim *)

let run_repl ?(items = 40) ~stages ~replicas () =
  let engine = Engine.create () in
  let topo = quiet_topo ~n:6 engine in
  let input = Stream_spec.make ~items ~item_bytes:10.0 () in
  let trace = Trace.create () in
  let sim = Repl_sim.create ~rng:(Rng.create 11) ~topo ~stages ~replicas ~input ~trace () in
  Repl_sim.run_to_completion sim;
  (sim, trace)

let test_repl_single_replica_behaves_like_pipeline () =
  let stages = Stage.balanced ~n:3 ~work:1.0 () in
  let _, trace = run_repl ~stages ~replicas:[| [ 0 ]; [ 1 ]; [ 2 ] |] () in
  Alcotest.(check int) "all items complete" 40 (Trace.items_completed trace);
  Alcotest.(check (array int)) "ordered output" (Array.init 40 Fun.id)
    (Array.map fst (Trace.completions trace));
  Alcotest.(check int) "items x stages services" 120 (List.length (Trace.services trace))

let test_repl_hot_stage_speedup () =
  let stages = Stage.imbalanced ~n:3 ~work:1.0 ~hot_stage:1 ~factor:4.0 () in
  let _, plain = run_repl ~items:80 ~stages ~replicas:[| [ 0 ]; [ 1 ]; [ 2 ] |] () in
  let _, replicated =
    run_repl ~items:80 ~stages ~replicas:[| [ 0 ]; [ 1; 3; 4; 5 ]; [ 2 ] |] ()
  in
  let speedup = Trace.makespan plain /. Trace.makespan replicated in
  Alcotest.(check bool)
    (Printf.sprintf "4 replicas of the 4x stage give ~4x (got %.2fx)" speedup)
    true
    (speedup > 3.0 && speedup < 4.5)

let test_repl_replicas_all_used () =
  let stages = Stage.imbalanced ~n:2 ~work:1.0 ~hot_stage:1 ~factor:3.0 () in
  let _, trace = run_repl ~items:60 ~stages ~replicas:[| [ 0 ]; [ 1; 2; 3 ] |] () in
  List.iter
    (fun node ->
      Alcotest.(check bool)
        (Printf.sprintf "replica %d served items" node)
        true
        (services_on_node trace ~node > 0))
    [ 1; 2; 3 ]

let test_repl_order_restored_despite_variance () =
  (* Heavy-tailed hot stage over 4 replicas: completion order must still be
     the input order. *)
  let stages =
    [|
      Stage.make ~output_bytes:10.0 ~work:(Variate.Constant 0.1) ();
      Stage.make ~output_bytes:10.0 ~work:(Variate.Lognormal { mu = -0.72; sigma = 1.2 }) ();
    |]
  in
  let _, trace = run_repl ~items:100 ~stages ~replicas:[| [ 0 ]; [ 1; 2; 3; 4 ] |] () in
  Alcotest.(check (array int)) "order restored" (Array.init 100 Fun.id)
    (Array.map fst (Trace.completions trace))

(* Repl_sim recomputes work from the same key: an item costs the same
   whichever replica serves it. Window 1 keeps at most one item on a
   replica, and each run's stages use disjoint node sets, so a service
   lasts its work over the (uniform) node speed. *)
let test_repl_work_keyed_across_replica_sets () =
  let run replicas =
    let engine = Engine.create () in
    let topo = quiet_topo ~n:6 engine in
    let stages =
      Array.init 2 (fun i ->
          Stage.make ~name:(Printf.sprintf "s%d" i) ~output_bytes:10.0
            ~work:(Variate.Lognormal { mu = -0.72; sigma = 1.2 }) ())
    in
    let input = Stream_spec.make ~items:40 ~item_bytes:10.0 () in
    let trace = Trace.create () in
    let sim =
      Repl_sim.create ~rng:(Rng.create 11) ~topo ~stages ~replicas ~input ~trace ()
    in
    Repl_sim.run_to_completion sim;
    List.sort compare
      (List.map
         (fun (s : Trace.service) ->
           ((s.Trace.item, s.Trace.stage), (s.Trace.node, s.Trace.finish -. s.Trace.start)))
         (Trace.services trace))
  in
  let a = run [| [ 0 ]; [ 1; 2 ] |] and b = run [| [ 3; 4 ]; [ 5; 0; 1 ] |] in
  Alcotest.(check int) "one service per item and stage" 80 (List.length a);
  Alcotest.(check (list (pair int int))) "same items and stages" (List.map fst a)
    (List.map fst b);
  Alcotest.(check bool) "every stage-0 item changed node" true
    (List.for_all2 (fun (_, (node_a, _)) (_, (node_b, _)) -> node_a <> node_b)
       (List.filter (fun ((_, stage), _) -> stage = 0) a)
       (List.filter (fun ((_, stage), _) -> stage = 0) b));
  List.iter2
    (fun ((item, stage), (_, da)) (_, (_, db)) ->
      check_close ~eps:1e-9 (Printf.sprintf "item %d at stage %d" item stage) da db)
    a b

let test_repl_validation () =
  let engine = Engine.create () in
  let topo = quiet_topo ~n:2 engine in
  let stages = Stage.balanced ~n:2 ~work:1.0 () in
  let input = Stream_spec.make ~items:1 () in
  Alcotest.check_raises "wrong arity" (Invalid_argument "Repl_sim: one replica set per stage required")
    (fun () ->
      ignore
        (Repl_sim.create ~rng:(Rng.create 1) ~topo ~stages ~replicas:[| [ 0 ] |] ~input
           ~trace:(Trace.create ()) ()));
  Alcotest.check_raises "empty set" (Invalid_argument "Repl_sim: empty replica set") (fun () ->
      ignore
        (Repl_sim.create ~rng:(Rng.create 1) ~topo ~stages ~replicas:[| [ 0 ]; [] |] ~input
           ~trace:(Trace.create ()) ()));
  Alcotest.check_raises "unknown node" (Invalid_argument "Repl_sim: unknown replica node")
    (fun () ->
      ignore
        (Repl_sim.create ~rng:(Rng.create 1) ~topo ~stages ~replicas:[| [ 0 ]; [ 9 ] |] ~input
           ~trace:(Trace.create ()) ()))

(* ----------------------------------------------------------------- Pipe *)

let test_pipe_apply () =
  let open Pipe in
  let p = (fun x -> x + 1) @> (fun x -> x * 2) @> last string_of_int in
  Alcotest.(check string) "sequential semantics" "8" (apply p 3);
  Alcotest.(check int) "length" 3 (length p)

let test_pipe_fuse_identity () =
  let open Pipe in
  let p = (fun x -> x + 1) @> last (fun x -> x * 3) in
  let fused = fuse_groups [| 0; 1 |] p in
  Alcotest.(check int) "distinct groups keep stages" 2 (length fused);
  Alcotest.(check int) "same result" (apply p 5) (apply fused 5)

let test_pipe_fuse_all () =
  let open Pipe in
  let p = (fun x -> x + 1) @> (fun x -> x * 2) @> last (fun x -> x - 3) in
  let fused = fuse_groups [| 0; 0; 0 |] p in
  Alcotest.(check int) "all collapse to one stage" 1 (length fused);
  Alcotest.(check int) "same result" (apply p 10) (apply fused 10)

let test_pipe_fuse_validation () =
  let open Pipe in
  let p = (fun x -> x + 1) @> last (fun x -> x * 2) in
  Alcotest.check_raises "wrong count" (Invalid_argument "Pipe.fuse_groups: wrong group count")
    (fun () -> ignore (fuse_groups [| 0 |] p));
  Alcotest.check_raises "decreasing groups"
    (Invalid_argument "Pipe.fuse_groups: groups must be non-decreasing") (fun () ->
      ignore (fuse_groups [| 1; 0 |] p))

let test_pipe_fuse_equivalence =
  qtest "fusing never changes the function"
    QCheck2.Gen.(pair (list_size (int_range 0 20) int) (int_range 1 4))
    (fun (xs, groups) ->
      let open Pipe in
      let p =
        (fun x -> x + 1) @> (fun x -> x * 2) @> (fun x -> x - 1) @> last (fun x -> x mod 1000)
      in
      let g = Array.init 4 (fun i -> min (groups - 1) (i * groups / 4)) in
      let fused = fuse_groups g p in
      List.for_all (fun x -> apply p x = apply fused x) xs)

let () =
  Alcotest.run "aspipe_skel"
    [
      ( "stage",
        [
          Alcotest.test_case "balanced" `Quick test_stage_balanced;
          Alcotest.test_case "imbalanced" `Quick test_stage_imbalanced;
          Alcotest.test_case "validation" `Quick test_stage_make_validation;
        ] );
      ( "stream",
        [
          Alcotest.test_case "immediate" `Quick test_stream_immediate;
          Alcotest.test_case "spaced" `Quick test_stream_spaced;
          Alcotest.test_case "poisson" `Quick test_stream_poisson_monotone;
          Alcotest.test_case "invalid" `Quick test_stream_invalid;
        ] );
      ( "skel_sim",
        [
          Alcotest.test_case "all items complete" `Quick test_sim_all_items_complete;
          Alcotest.test_case "fifo output" `Quick test_sim_fifo_output;
          Alcotest.test_case "conservation" `Quick test_sim_conservation;
          Alcotest.test_case "mapping respected" `Quick test_sim_services_respect_mapping;
          Alcotest.test_case "single stage makespan" `Quick test_sim_single_stage_makespan;
          Alcotest.test_case "colocation" `Quick test_sim_colocation_halves_throughput;
          Alcotest.test_case "slow link throttles" `Quick test_sim_slow_link_throttles;
          Alcotest.test_case "load slows run" `Quick test_sim_availability_step_slows_run;
          Alcotest.test_case "remap moves services" `Quick test_sim_remap_moves_services;
          Alcotest.test_case "remap no-op" `Quick test_sim_remap_same_mapping_free;
          Alcotest.test_case "remap during migration" `Quick
            test_sim_remap_while_migrating_rejected;
          Alcotest.test_case "remap off a dead node" `Quick test_sim_remap_off_dead_node;
          Alcotest.test_case "invalid mapping" `Quick test_sim_invalid_mapping;
          Alcotest.test_case "deterministic" `Quick test_sim_deterministic;
          Alcotest.test_case "spaced arrivals" `Quick test_sim_spaced_arrivals_pace_output;
          Alcotest.test_case "execute one-shot" `Quick test_sim_execute_oneshot;
          Alcotest.test_case "starvation & recovery" `Quick test_sim_total_starvation_and_recovery;
          test_sim_conservation_under_random_dynamics;
          test_sim_passed_trace_matches_subscribed;
          Alcotest.test_case "re-dispatch costs the same" `Quick
            test_sim_redispatch_costs_the_same;
        ] );
      ( "buffers",
        [
          Alcotest.test_case "capacity validated" `Quick test_sim_buffer_capacity_validated;
          Alcotest.test_case "monotone in capacity" `Quick test_sim_buffer_monotone;
          Alcotest.test_case "paired work draws" `Quick test_sim_work_draws_paired_across_mappings;
        ] );
      ( "farm_sim",
        [
          Alcotest.test_case "ordered completion" `Quick test_farm_completes_in_order;
          Alcotest.test_case "round-robin shares" `Quick test_farm_round_robin_shares;
          Alcotest.test_case "least-loaded proportional" `Quick test_farm_least_loaded_proportional;
          Alcotest.test_case "single worker" `Quick test_farm_single_worker_serializes;
          Alcotest.test_case "set workers mid-run" `Quick test_farm_set_workers_mid_run;
          Alcotest.test_case "validation" `Quick test_farm_validation;
          Alcotest.test_case "emission times non-decreasing" `Quick
            test_farm_emission_times_non_decreasing;
        ] );
      ( "repl_sim",
        [
          Alcotest.test_case "single replica = pipeline" `Quick
            test_repl_single_replica_behaves_like_pipeline;
          Alcotest.test_case "hot stage speedup" `Quick test_repl_hot_stage_speedup;
          Alcotest.test_case "replicas all used" `Quick test_repl_replicas_all_used;
          Alcotest.test_case "order restored" `Quick test_repl_order_restored_despite_variance;
          Alcotest.test_case "validation" `Quick test_repl_validation;
          Alcotest.test_case "work keyed across replica sets" `Quick
            test_repl_work_keyed_across_replica_sets;
        ] );
      ( "pipe",
        [
          Alcotest.test_case "apply" `Quick test_pipe_apply;
          Alcotest.test_case "fuse identity" `Quick test_pipe_fuse_identity;
          Alcotest.test_case "fuse all" `Quick test_pipe_fuse_all;
          Alcotest.test_case "fuse validation" `Quick test_pipe_fuse_validation;
          test_pipe_fuse_equivalence;
        ] );
    ]
