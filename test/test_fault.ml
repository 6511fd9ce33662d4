(* Tests for the fault subsystem: injection profiles, crash/recovery
   semantics in the simulator, checkpoint re-dispatch, failover, monitor
   suspicion and determinism of faulty runs. *)

module Engine = Aspipe_des.Engine
module Topology = Aspipe_grid.Topology
module Node = Aspipe_grid.Node
module Monitor = Aspipe_grid.Monitor
module Trace = Aspipe_grid.Trace
module Stage = Aspipe_skel.Stage
module Stream_spec = Aspipe_skel.Stream_spec
module Skel_sim = Aspipe_skel.Skel_sim
module Fault = Aspipe_fault.Fault
module Scenario = Aspipe_core.Scenario
module Adaptive = Aspipe_core.Adaptive
module Baselines = Aspipe_core.Baselines
module Rng = Aspipe_util.Rng
module Variate = Aspipe_util.Variate
module Event = Aspipe_obs.Event
module Bus = Aspipe_obs.Bus

(* A tiny world: [n] nodes at speed 10, near-instant network, so service
   times dominate and crash instants are easy to reason about. *)
let quiet_topo ?(n = 3) engine =
  Topology.uniform engine ~n ~speed:10.0 ~latency:1e-4 ~bandwidth:1e9 ()

let constant_stages ~n =
  Array.init n (fun i ->
      Stage.make ~name:(Printf.sprintf "s%d" i) ~output_bytes:10.0 ~state_bytes:100.0
        ~work:(Variate.Constant 1.0) ())

let make_sim ?(n = 3) ?(items = 20) ?(stage_count = 1) ~mapping () =
  let engine = Engine.create () in
  let topo = quiet_topo ~n engine in
  let trace = Trace.create () in
  let sim =
    Skel_sim.create ~rng:(Rng.create 7) ~topo ~stages:(constant_stages ~n:stage_count) ~mapping
      ~input:(Stream_spec.make ~items ~item_bytes:10.0 ())
      ~trace ()
  in
  (engine, topo, trace, sim)

let completion_ids trace = Array.map fst (Trace.completions trace)

(* ------------------------------------------------- crash loses the queue *)

(* Single stage, batch input, permanent crash mid-run: by the crash instant
   every item has been accepted (near-instant user link), so fail-stop must
   split the input exactly into completed + checkpointed-lost, with the
   lost ids being precisely the uncompleted tail in FIFO order. *)
let test_crash_loses_exactly_in_service_and_queued () =
  let items = 20 in
  let engine, topo, trace, sim = make_sim ~items ~mapping:[| 0 |] () in
  let lost_events = ref [] in
  Bus.subscribe (Engine.bus engine) (fun (e : Event.t) ->
         match e.Event.payload with
         | Event.Item_lost { item; stage; node } ->
             Alcotest.(check int) "lost at stage 0" 0 stage;
             Alcotest.(check int) "lost on node 0" 0 node;
             lost_events := item :: !lost_events
         | _ -> ());
  ignore (Engine.schedule_at engine ~time:1.05 (fun () -> Node.set_up (Topology.node topo 0) false));
  (match Skel_sim.run sim with
  | `Completed -> Alcotest.fail "a dead stage host cannot complete the workload"
  | `Stalled _ -> ());
  let completed = Skel_sim.items_completed sim in
  let lost = Skel_sim.lost_items sim in
  Alcotest.(check bool) "made progress before the crash" true (completed > 0);
  Alcotest.(check int) "completed + lost = total" items (completed + List.length lost);
  Alcotest.(check (list int)) "lost = the uncompleted FIFO tail"
    (List.init (items - completed) (fun i -> completed + i))
    lost;
  Alcotest.(check int) "one loss event per lost item" (List.length lost)
    (Skel_sim.items_lost_total sim);
  Alcotest.(check (list int)) "bus events match the checkpoint" lost
    (List.sort compare !lost_events);
  Alcotest.(check int) "completions all precede the crash" completed
    (Array.length (Trace.completions trace))

(* ------------------------------------------------------ recovery replays *)

let test_recovery_replays_checkpoint () =
  let items = 20 in
  let engine, topo, trace, sim = make_sim ~items ~mapping:[| 0 |] () in
  ignore (Engine.schedule_at engine ~time:1.05 (fun () -> Node.set_up (Topology.node topo 0) false));
  ignore (Engine.schedule_at engine ~time:3.0 (fun () -> Node.set_up (Topology.node topo 0) true));
  (match Skel_sim.run sim with
  | `Completed -> ()
  | `Stalled d -> Alcotest.fail ("recovery should complete the workload:\n" ^ d));
  Alcotest.(check int) "every item completed" items (Skel_sim.items_completed sim);
  Alcotest.(check (list int)) "checkpoint drained" [] (Skel_sim.lost_items sim);
  Alcotest.(check int) "every loss re-dispatched" (Skel_sim.items_lost_total sim)
    (Skel_sim.items_redispatched_total sim);
  Alcotest.(check bool) "the crash actually lost items" true (Skel_sim.items_lost_total sim > 0);
  (* No duplicate or dropped outputs: the completion ids are exactly the
     input ids, and 1-for-1 FIFO order survives the replay. *)
  let ids = completion_ids trace in
  Alcotest.(check (array int)) "output multiset = input image, in order"
    (Array.init items Fun.id) ids

(* --------------------------------------------------------------- failover *)

let test_failover_redispatches_to_survivor () =
  let items = 30 in
  let engine, topo, trace, sim = make_sim ~n:3 ~items ~stage_count:2 ~mapping:[| 0; 1 |] () in
  ignore (Engine.schedule_at engine ~time:1.0 (fun () -> Node.set_up (Topology.node topo 1) false));
  ignore (Engine.schedule_at engine ~time:2.0 (fun () -> ignore (Skel_sim.remap sim [| 0; 2 |])));
  (match Skel_sim.run sim with
  | `Completed -> ()
  | `Stalled d -> Alcotest.fail ("failover should complete the workload:\n" ^ d));
  Alcotest.(check (array int)) "mapping moved off the corpse" [| 0; 2 |] (Skel_sim.mapping sim);
  Alcotest.(check int) "every item completed" items (Skel_sim.items_completed sim);
  Alcotest.(check (list int)) "checkpoint drained" [] (Skel_sim.lost_items sim);
  Alcotest.(check bool) "the crash actually lost items" true (Skel_sim.items_lost_total sim > 0);
  let ids = completion_ids trace in
  Alcotest.(check (array int)) "no duplicate, no drop, order preserved"
    (Array.init items Fun.id) ids

(* -------------------------------------------- crash after a migration *)

(* Two stages of work 10 and 1 on speed-1 nodes 0 and 1. Stage 0 starts
   item 0 on node 0 at t = 0 and migrates to node 2 at t = 1, landing long
   before the service would end at t = 10; [crash] goes down at t = 3 and
   [recover] (when given) comes back at t = 12. *)
let migrated_mid_service ~crash ?recover () =
  let engine = Engine.create () in
  let topo = Topology.uniform engine ~n:3 ~speed:1.0 ~latency:1e-4 ~bandwidth:1e9 () in
  let stages =
    Array.map
      (fun (name, work) ->
        Stage.make ~name ~output_bytes:10.0 ~state_bytes:100.0 ~work:(Variate.Constant work) ())
      [| ("a", 10.0); ("b", 1.0) |]
  in
  let trace = Trace.create () in
  let sim =
    Skel_sim.create ~rng:(Rng.create 7) ~topo ~stages ~mapping:[| 0; 1 |]
      ~input:(Stream_spec.make ~items:3 ~item_bytes:10.0 ())
      ~trace ()
  in
  ignore (Engine.schedule_at engine ~time:1.0 (fun () -> ignore (Skel_sim.remap sim [| 2; 1 |])));
  ignore
    (Engine.schedule_at engine ~time:3.0 (fun () -> Node.set_up (Topology.node topo crash) false));
  Option.iter
    (fun node ->
      ignore
        (Engine.schedule_at engine ~time:12.0 (fun () -> Node.set_up (Topology.node topo node) true)))
    recover;
  (trace, sim)

(* The item in service dies with the node it runs on, although its stage
   has moved to node 2, and node 2 replays it at once. *)
let test_crash_kills_item_left_behind () =
  let trace, sim = migrated_mid_service ~crash:0 () in
  (match Skel_sim.run sim with
  | `Completed -> ()
  | `Stalled d -> Alcotest.fail ("the migrated stage should replay its item:\n" ^ d));
  Alcotest.(check int) "3 of 3 completed" 3 (Skel_sim.items_completed sim);
  Alcotest.(check int) "the item in service was lost" 1 (Skel_sim.items_lost_total sim);
  Alcotest.(check int) "and re-dispatched" 1 (Skel_sim.items_redispatched_total sim);
  Alcotest.(check (array int)) "no duplicate, no drop, order preserved" [| 0; 1; 2 |]
    (completion_ids trace)

(* The mirror case: node 2, where the stage now lives, crashes while item
   0 is still served on node 0. Item 0 survives and completes once; the
   queued items, which moved with the stage, die with node 2 and are
   replayed when it recovers. *)
let test_crash_spares_item_served_elsewhere () =
  let trace, sim = migrated_mid_service ~crash:2 ~recover:2 () in
  (match Skel_sim.run sim with
  | `Completed -> ()
  | `Stalled d -> Alcotest.fail ("recovery should complete the workload:\n" ^ d));
  Alcotest.(check int) "3 of 3 completed" 3 (Skel_sim.items_completed sim);
  Alcotest.(check int) "only the two queued items were lost" 2 (Skel_sim.items_lost_total sim);
  Alcotest.(check int) "and re-dispatched" 2 (Skel_sim.items_redispatched_total sim);
  Alcotest.(check (array int)) "no duplicate, no drop, order preserved" [| 0; 1; 2 |]
    (completion_ids trace)

(* ------------------------------------------------------- stall diagnosis *)

let test_stall_diagnostic_names_the_problem () =
  let items = 10 in
  let engine, topo, _trace, sim = make_sim ~n:2 ~items ~stage_count:2 ~mapping:[| 0; 1 |] () in
  ignore (Engine.schedule_at engine ~time:0.55 (fun () -> Node.set_up (Topology.node topo 1) false));
  match Skel_sim.run sim with
  | `Completed -> Alcotest.fail "expected a fault-induced stall"
  | `Stalled d ->
      let contains needle =
        Alcotest.(check bool) (Printf.sprintf "diagnostic mentions %S" needle) true
          (let len = String.length needle in
           let rec scan i = i + len <= String.length d && (String.sub d i len = needle || scan (i + 1)) in
           scan 0)
      in
      contains "stage 1";
      contains "(s1)";
      contains "node 1";
      contains "DOWN";
      contains "queued";
      contains "fault-induced stall";
      contains (Printf.sprintf "/%d items completed" items)

(* ------------------------------------------------------- fault profiles *)

let test_profile_validation () =
  let engine = Engine.create () in
  let topo = quiet_topo engine in
  Alcotest.check_raises "negative crash time"
    (Invalid_argument "Fault: crash time must be non-negative") (fun () ->
      Fault.apply_node ~horizon:100.0 topo 0 (Fault.Crash_at (-1.0)));
  Alcotest.check_raises "poisson needs rng"
    (Invalid_argument "Fault: the Poisson profile is stochastic and needs ~rng") (fun () ->
      Fault.apply_node ~horizon:100.0 topo 0 (Fault.Poisson { mtbf = 10.0; mttr = 1.0 }))

(* A NaN slips past every range check and an infinity passes them; both
   must be refused by name, in [parse_spec] (the CLI's path) and when a
   profile is applied directly. *)
let test_profile_rejects_non_finite () =
  let refused_with message f =
    match f () with
    | exception Invalid_argument m -> String.equal m message
    | _ -> false
  in
  List.iter
    (fun (spec, message) ->
      if not (refused_with message (fun () -> Fault.parse_spec spec)) then
        Alcotest.failf "%S was not refused with %S" spec message)
    [
      ("0:crash@nan", "Fault: crash time must be finite (got nan)");
      ("0:crash@inf", "Fault: crash time must be finite (got inf)");
      ("0:crash@10+nan", "Fault: crash duration must be finite (got nan)");
      ("0:crash@10+inf", "Fault: crash duration must be finite (got inf)");
      ("0:windows=nan+5", "Fault: window start must be finite (got nan)");
      ("0:windows=1+5,2+inf", "Fault: window duration must be finite (got inf)");
      ("0:mtbf=inf,mttr=1", "Fault: mtbf must be finite (got inf)");
      ("0:mtbf=nan,mttr=1", "Fault: mtbf must be finite (got nan)");
      ("0:mtbf=5,mttr=-inf", "Fault: mttr must be finite (got -inf)");
    ];
  let engine = Engine.create () in
  let topo = quiet_topo engine in
  Alcotest.(check bool) "apply_node refuses a NaN crash" true
    (refused_with "Fault: crash time must be finite (got nan)" (fun () ->
         Fault.apply_node ~horizon:100.0 topo 0 (Fault.Crash_at nan)));
  Alcotest.(check bool) "apply_link refuses an infinite mttr" true
    (refused_with "Fault: mttr must be finite (got inf)" (fun () ->
         Fault.apply_link ~rng:(Rng.create 1) ~horizon:100.0 topo 0 1
           (Fault.Poisson { mtbf = 10.0; mttr = infinity })))

(* A Poisson schedule is planned whole before the run: a profile expecting
   more than 10^6 crash-repair cycles before the horizon, or any profile
   under an infinite horizon, is refused by name where the scenario is made
   and where the profile is applied. 5 * 10^5 cycles are still planned. *)
let test_poisson_too_dense_refused () =
  let refused f = match f () with exception Invalid_argument _ -> true | _ -> false in
  let dense = Fault.Poisson { mtbf = 1e-300; mttr = 1e-300 } in
  Alcotest.check_raises "check_horizon names mtbf, mttr and the horizon"
    (Invalid_argument
       "Fault: mtbf=1e-300,mttr=1e-300 expects 5e+304 crash-repair cycles before the horizon \
        (100000 s); at most 1e+06 are planned")
    (fun () -> Fault.check_horizon ~horizon:1e5 dense);
  Alcotest.check_raises "an infinite horizon is refused"
    (Invalid_argument
       "Fault: mtbf=10,mttr=1 expects inf crash-repair cycles before the horizon (inf s); at \
        most 1e+06 are planned")
    (fun () -> Fault.check_horizon ~horizon:infinity (Fault.Poisson { mtbf = 10.0; mttr = 1.0 }));
  Fault.check_horizon ~horizon:1e5 (Fault.Poisson { mtbf = 0.1; mttr = 0.1 });
  Fault.check_horizon ~horizon:infinity (Fault.Crash_at 5.0);
  let scenario ?(faults = []) ?(net_faults = []) () =
    Scenario.make ~name:"dense" ~make_topo:quiet_topo ~faults ~net_faults
      ~stages:(Stage.balanced ~n:2 ~work:1.0 ())
      ~input:(Stream_spec.make ~items:10 ())
      ~horizon:1e5 ()
  in
  Alcotest.(check bool) "Scenario.make refuses a dense node fault" true
    (refused (fun () -> scenario ~faults:[ (0, dense) ] ()));
  Alcotest.(check bool) "Scenario.make refuses a dense link fault" true
    (refused (fun () -> scenario ~net_faults:[ ((0, 1), dense) ] ()));
  let engine = Engine.create () in
  Alcotest.(check bool) "apply_node refuses it" true
    (refused (fun () ->
         Fault.apply_node ~rng:(Rng.create 1) ~horizon:1e5 (quiet_topo engine) 0 dense))

let test_windows_drive_liveness () =
  let engine = Engine.create () in
  let topo = quiet_topo engine in
  let node = Topology.node topo 1 in
  Fault.apply_node ~horizon:100.0 topo 1 (Fault.Windows [ (10.0, 5.0); (30.0, 5.0) ]);
  Engine.run ~until:12.0 engine;
  Alcotest.(check bool) "down inside the first window" false (Node.up node);
  Engine.run ~until:20.0 engine;
  Alcotest.(check bool) "up between windows" true (Node.up node);
  Engine.run ~until:32.0 engine;
  Alcotest.(check bool) "down inside the second window" false (Node.up node);
  Engine.run ~until:50.0 engine;
  Alcotest.(check bool) "up after the last window" true (Node.up node)

(* The whole Poisson schedule is drawn up front from the caller's rng, so
   equal seeds must yield equal crash/recovery instants and different seeds
   (practically) must not. *)
let poisson_transitions seed =
  let engine = Engine.create () in
  let topo = quiet_topo engine in
  let events = ref [] in
  Bus.subscribe (Engine.bus engine) (fun (e : Event.t) ->
         match e.Event.payload with
         | Event.Node_crashed { node } -> events := (e.Event.time, `Down, node) :: !events
         | Event.Node_recovered { node } -> events := (e.Event.time, `Up, node) :: !events
         | _ -> ());
  Fault.apply_node ~rng:(Rng.create seed) ~horizon:500.0 topo 1
    (Fault.Poisson { mtbf = 60.0; mttr = 10.0 });
  Engine.run ~until:500.0 engine;
  List.rev !events

let test_poisson_respects_seed () =
  let a = poisson_transitions 5 in
  let b = poisson_transitions 5 in
  let c = poisson_transitions 6 in
  Alcotest.(check bool) "schedule non-trivial" true (List.length a > 0);
  Alcotest.(check bool) "same seed, same schedule" true (a = b);
  Alcotest.(check bool) "different seed, different schedule" true (a <> c)

let test_parse_spec () =
  (match Fault.parse_spec "0:crash@120;1:mtbf=500,mttr=50;3:windows=10+5,40+5" with
  | [ (0, Fault.Crash_at t); (1, Fault.Poisson { mtbf; mttr }); (3, Fault.Windows ws) ] ->
      Alcotest.(check (float 1e-9)) "crash time" 120.0 t;
      Alcotest.(check (float 1e-9)) "mtbf" 500.0 mtbf;
      Alcotest.(check (float 1e-9)) "mttr" 50.0 mttr;
      Alcotest.(check int) "two windows" 2 (List.length ws)
  | _ -> Alcotest.fail "unexpected parse");
  (match Fault.parse_spec "2:crash@10+20" with
  | [ (2, Fault.Crash_recover { at; duration }) ] ->
      Alcotest.(check (float 1e-9)) "at" 10.0 at;
      Alcotest.(check (float 1e-9)) "duration" 20.0 duration
  | _ -> Alcotest.fail "crash@T+D should parse as crash+recover");
  List.iter
    (fun bad ->
      try
        ignore (Fault.parse_spec bad);
        Alcotest.fail (Printf.sprintf "%S should not parse" bad)
      with Invalid_argument _ -> ())
    [ ""; "x:crash@1"; "0:boom"; "0:crash@"; "0:mtbf=5"; "0:windows=" ]

(* ---------------------------------------------------- monitor suspicion *)

let test_monitor_suspects_dead_node () =
  let engine = Engine.create () in
  let topo = quiet_topo engine in
  let monitor =
    Monitor.create ~rng:(Rng.create 3) ~every:1.0 ~horizon:100.0 topo
  in
  Engine.run ~until:5.0 engine;
  Alcotest.(check bool) "healthy node unsuspected" false (Monitor.suspected monitor 1);
  Node.set_up (Topology.node topo 1) false;
  Engine.run ~until:6.2 engine;
  Alcotest.(check bool) "one miss is not yet suspicion" false (Monitor.suspected monitor 1);
  Engine.run ~until:8.5 engine;
  Alcotest.(check bool) "two misses suspect the node" true (Monitor.suspected monitor 1);
  Alcotest.(check (list int)) "suspect list" [ 1 ]
    (List.filter (Monitor.suspected monitor) (List.init (Topology.size topo) Fun.id));
  Node.set_up (Topology.node topo 1) true;
  Engine.run ~until:11.5 engine;
  Alcotest.(check bool) "an answered heartbeat clears suspicion" false
    (Monitor.suspected monitor 1)

(* ------------------------------------------- adaptive failover end-to-end *)

let crash_scenario ~faults =
  Scenario.make ~name:"test-crash"
    ~make_topo:(fun engine ->
      Topology.uniform engine ~n:3 ~speed:10.0 ~latency:1e-3 ~bandwidth:1e8 ())
    ~faults
    ~stages:(constant_stages ~n:2)
    ~input:(Stream_spec.make ~arrival:(Stream_spec.Spaced 0.2) ~items:150 ~item_bytes:100.0 ())
    ~horizon:1e4 ()

let test_adaptive_completes_after_crash () =
  let seed = 11 in
  (* Probe the fault-free world for the mapping the static schedule (and,
     with high likelihood, the adaptive engine) starts from, then kill one
     of its nodes a third of the way in. *)
  let nominal = Baselines.static_model_best ~scenario:(crash_scenario ~faults:[]) ~seed () in
  let mapping = Aspipe_model.Mapping.to_array nominal.Baselines.mapping in
  let victim = mapping.(1) in
  let scenario =
    crash_scenario ~faults:[ (victim, Fault.Crash_at (0.3 *. nominal.Baselines.makespan)) ]
  in
  let static = Baselines.static_faulty ~label:"static" ~mapping ~scenario ~seed () in
  Alcotest.(check bool) "static DNFs" true (static.Baselines.finish = None);
  let report = Adaptive.run ~scenario ~seed () in
  Alcotest.(check int) "adaptive completes every item" 150
    (Trace.items_completed report.Adaptive.trace);
  Alcotest.(check bool) "at least one failover committed" true
    (report.Adaptive.failover_count >= 1);
  Alcotest.(check bool) "losses were re-dispatched" true
    (report.Adaptive.items_redispatched >= report.Adaptive.items_lost);
  let final = Aspipe_model.Mapping.to_array report.Adaptive.final_mapping in
  Alcotest.(check bool) "final mapping avoids the corpse" true
    (not (Array.exists (fun n -> n = victim) final))

let test_restart_baseline_completes_but_pays () =
  let seed = 11 in
  let nominal = Baselines.static_model_best ~scenario:(crash_scenario ~faults:[]) ~seed () in
  let mapping = Aspipe_model.Mapping.to_array nominal.Baselines.mapping in
  let scenario =
    crash_scenario ~faults:[ (mapping.(1), Fault.Crash_at (0.3 *. nominal.Baselines.makespan)) ]
  in
  let restart = Baselines.static_restart ~scenario ~seed () in
  (match restart.Baselines.finish with
  | None -> Alcotest.fail "restart should eventually complete"
  | Some f ->
      Alcotest.(check bool) "restart pays more than the fault-free run" true
        (f > nominal.Baselines.makespan));
  Alcotest.(check bool) "at least one restart happened" true (restart.Baselines.restarts >= 1)

(* ------------------------------------------------------- failover guards *)

let crash_recover ~at = Fault.Crash_recover { at; duration = 30.0 }

(* Two mapped nodes crash a few seconds apart and each recovers 30 s
   later. The failover back-off keeps the second failover at least 10 s
   after the first. The initial mapping is (2,1,0) and nodes 0 and 1 crash
   3 s apart. With 1 s epochs and 0.5 s heartbeats, the second node is
   suspected about 1 s after its crash, so only the back-off holds its
   failover back. [Policy.never] leaves the failover step as the only
   response, so a performance remap cannot route around the second crash
   in its place. *)
let guard_scenario =
  Scenario.make ~name:"test-guard"
    ~make_topo:(fun engine ->
      Topology.uniform engine ~n:4 ~speed:10.0 ~latency:0.01 ~bandwidth:1e7 ())
    ~faults:[ (0, crash_recover ~at:20.0); (1, crash_recover ~at:23.0) ]
    ~stages:(Aspipe_workload.Synthetic.balanced ~n:3 ())
    ~input:(Stream_spec.make ~arrival:(Stream_spec.Spaced 0.3) ~items:200 ())
    ~horizon:1e5 ()

let guard_config =
  {
    Adaptive.default_config with
    monitor_every = 0.5;
    evaluate_every = 1.0;
    policy = (fun () -> Aspipe_core.Policy.never ());
  }

(* Records the virtual time of every committed failover on the run's bus. *)
let failover_times () =
  let times = ref [] in
  let instrument bus =
    Bus.subscribe ~interest:Bus.Control bus (fun (e : Event.t) ->
           match e.Event.payload with
           | Event.Failover_committed _ -> times := e.Event.time :: !times
           | _ -> ())
  in
  (times, instrument)

let check_backoff driver times =
  match List.rev times with
  | [ first; second ] ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: second failover (t=%g) at least 10 s after the first (t=%g)" driver
           second first)
        true
        (second -. first >= 10.0)
  | ts -> Alcotest.failf "%s: expected two failovers, got %d" driver (List.length ts)

(* The serving driver decides every 10 s, so there the back-off and the
   epoch clock coincide; its run still has to commit both failovers. *)
let test_failover_backoff () =
  let times, instrument = failover_times () in
  let report =
    Adaptive.run ~config:guard_config ~instrument ~scenario:guard_scenario ~seed:5 ()
  in
  Alcotest.(check int) "adaptive completes" 200 (Trace.items_completed report.Adaptive.trace);
  check_backoff "adaptive" !times;
  let module Serve = Aspipe_serve.Serve in
  let times, instrument = failover_times () in
  let scenario =
    Scenario.make ~name:"test-guard-serve"
      ~make_topo:(fun engine ->
        Topology.uniform engine ~n:3 ~speed:10.0 ~latency:0.01 ~bandwidth:1e7 ())
      ~faults:[ (0, crash_recover ~at:38.0); (1, crash_recover ~at:42.0) ]
      ~stages:
        (Array.init 3 (fun i ->
             Stage.make ~name:(Printf.sprintf "s%d" i) ~output_bytes:1e4 ~state_bytes:1e5
               ~work:(Variate.Constant 1.0) ()))
      ~input:(Stream_spec.make ~item_bytes:1e4 ~items:1 ())
      ~horizon:120.0 ()
  in
  let r =
    Serve.run ~instrument ~initial:`Best ~autoscaler:(Aspipe_serve.Autoscaler.static ())
      ~arrival:(Aspipe_serve.Arrival.poisson ~rate:1.5)
      ~slo:(Aspipe_serve.Slo.spec ~target_quantile:0.95 ~threshold:6.0 ~window:30.0)
      ~scenario ~seed:11 ()
  in
  Alcotest.(check int) "serving drains" r.Serve.arrivals r.Serve.completions;
  check_backoff "serve" !times

(* The same two crashes under a budget of one failover: the first is
   failed over, the second is waited out until its node recovers and
   replays the checkpoint, and the run still completes. *)
let test_failover_cap () =
  let times, instrument = failover_times () in
  let report =
    Adaptive.run ~config:{ guard_config with max_failovers = 1 } ~instrument
      ~scenario:guard_scenario ~seed:5 ()
  in
  Alcotest.(check int) "exactly one failover" 1 report.Adaptive.failover_count;
  Alcotest.(check int) "one failover event" 1 (List.length !times);
  Alcotest.(check int) "completes after recovery" 200
    (Trace.items_completed report.Adaptive.trace)

(* ------------------------------------------------------------ determinism *)

let jsonl_of_run ~scenario ~seed =
  let buffer = Buffer.create 65536 in
  ignore
    (Adaptive.run
       ~instrument:(fun bus -> Bus.subscribe bus (Aspipe_obs.Jsonl.sink_to_buffer buffer))
       ~scenario ~seed ());
  Buffer.contents buffer

let test_faulty_run_deterministic () =
  let scenario = crash_scenario ~faults:[ (1, Fault.Crash_at 10.0) ] in
  let a = jsonl_of_run ~scenario ~seed:11 in
  let b = jsonl_of_run ~scenario ~seed:11 in
  Alcotest.(check bool) "stream non-trivial" true (String.length a > 1000);
  Alcotest.(check bool) "fault events present" true
    (let needle = "node_crashed" in
     let len = String.length needle in
     let rec scan i = i + len <= String.length a && (String.sub a i len = needle || scan (i + 1)) in
     scan 0);
  Alcotest.(check bool) "same seed, byte-identical JSONL" true (String.equal a b)

let () =
  Alcotest.run "aspipe_fault"
    [
      ( "crash semantics",
        [
          Alcotest.test_case "loses exactly in-service + queued" `Quick
            test_crash_loses_exactly_in_service_and_queued;
          Alcotest.test_case "recovery replays the checkpoint" `Quick
            test_recovery_replays_checkpoint;
          Alcotest.test_case "failover re-dispatches to a survivor" `Quick
            test_failover_redispatches_to_survivor;
          Alcotest.test_case "stall diagnostic names the problem" `Quick
            test_stall_diagnostic_names_the_problem;
          Alcotest.test_case "crash kills the item left behind" `Quick
            test_crash_kills_item_left_behind;
          Alcotest.test_case "crash spares an item served elsewhere" `Quick
            test_crash_spares_item_served_elsewhere;
        ] );
      ( "profiles",
        [
          Alcotest.test_case "validation" `Quick test_profile_validation;
          Alcotest.test_case "windows drive liveness" `Quick test_windows_drive_liveness;
          Alcotest.test_case "poisson respects the seed" `Quick test_poisson_respects_seed;
          Alcotest.test_case "parse_spec grammar" `Quick test_parse_spec;
          Alcotest.test_case "non-finite numbers refused" `Quick test_profile_rejects_non_finite;
          Alcotest.test_case "poisson too dense to plan refused" `Quick
            test_poisson_too_dense_refused;
        ] );
      ( "detection",
        [ Alcotest.test_case "monitor suspects a dead node" `Quick test_monitor_suspects_dead_node ] );
      ( "end-to-end",
        [
          Alcotest.test_case "adaptive completes after a crash" `Slow
            test_adaptive_completes_after_crash;
          Alcotest.test_case "restart completes but pays" `Slow
            test_restart_baseline_completes_but_pays;
          Alcotest.test_case "faulty runs are deterministic" `Slow test_faulty_run_deterministic;
          Alcotest.test_case "failovers back off 10 s" `Quick test_failover_backoff;
          Alcotest.test_case "max_failovers caps failovers" `Quick test_failover_cap;
        ] );
    ]
