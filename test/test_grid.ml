(* Tests for the grid substrate: nodes, links, topologies, load generators,
   the monitoring subsystem and execution traces. *)

module Engine = Aspipe_des.Engine
module Node = Aspipe_grid.Node
module Link = Aspipe_grid.Link
module Topology = Aspipe_grid.Topology
module Loadgen = Aspipe_grid.Loadgen
module Monitor = Aspipe_grid.Monitor
module Trace = Aspipe_grid.Trace
module Rng = Aspipe_util.Rng

let check_float = Alcotest.(check (float 1e-9))
let check_close ?(eps = 1e-6) msg a b = Alcotest.(check (float eps)) msg a b

(* ----------------------------------------------------------------- Node *)

(* The rate [node]'s server serves at now: the inverse of the time one unit
   of work takes when submitted alone, or 0 when it never finishes. *)
let service_rate engine node =
  let start = Engine.now engine and finish = ref infinity in
  Aspipe_des.Server.submit (Node.server node) ~work:1.0 ~tag:0 ~on_start:ignore (fun _ ->
      finish := Engine.now engine);
  Engine.run engine;
  1.0 /. (!finish -. start)

let test_node_rates () =
  let engine = Engine.create () in
  let node = Node.create engine ~id:0 ~speed:8.0 () in
  check_float "dedicated rate" 8.0 (service_rate engine node);
  Node.set_availability node 0.5;
  check_float "half availability halves the rate" 4.0 (service_rate engine node);
  Node.set_availability node 2.0;
  check_float "availability clamped above" 8.0 (service_rate engine node);
  Node.set_availability node (-1.0);
  check_float "availability clamped below" 0.0 (service_rate engine node)

(* [read ()] at each of [times], collected by events scheduled on [engine]
   before it runs. *)
let probe engine times read =
  let seen = ref [] in
  List.iter
    (fun time -> ignore (Engine.schedule_at engine ~time (fun () -> seen := read () :: !seen)))
    times;
  fun () -> List.rev !seen

(* [(time, read ())] every [every] seconds until [horizon]. *)
let sample engine ~every ~horizon read =
  let seen = ref [] in
  Engine.periodic engine ~every (fun () ->
      seen := (Engine.now engine, read ()) :: !seen;
      Engine.now engine < horizon);
  fun () -> List.rev !seen

let test_node_invalid_speed () =
  let engine = Engine.create () in
  Alcotest.check_raises "non-positive speed" (Invalid_argument "Node.create: speed must be positive")
    (fun () -> ignore (Node.create engine ~id:0 ~speed:0.0 ()))

let test_node_history () =
  let engine = Engine.create () in
  let node = Node.create engine ~id:1 ~speed:10.0 () in
  ignore (Engine.schedule engine ~delay:5.0 (fun () -> Node.set_availability node 0.3));
  let seen = probe engine [ 2.0; 6.0 ] (fun () -> Node.availability node) in
  Engine.run engine;
  Alcotest.(check (list (float 1e-9))) "before, after" [ 1.0; 0.3 ] (seen ())

(* ----------------------------------------------------------------- Link *)

let test_link_transfer_time () =
  let engine = Engine.create () in
  let link = Link.create engine ~latency:0.1 ~bandwidth:100.0 () in
  check_float "latency + bytes/bandwidth" 0.6 (Link.transfer_time link ~bytes:50.0)

let test_link_delivery () =
  let engine = Engine.create () in
  let link = Link.create engine ~latency:0.1 ~bandwidth:100.0 () in
  let delivered = ref nan in
  Link.transfer link ~bytes:50.0 (fun () -> delivered := Engine.now engine);
  Engine.run engine;
  check_float "delivered at transfer_time" 0.6 !delivered

let test_link_uncontended_overlap () =
  let engine = Engine.create () in
  let link = Link.create engine ~latency:0.5 ~bandwidth:100.0 () in
  let times = ref [] in
  Link.transfer link ~bytes:50.0 (fun () -> times := Engine.now engine :: !times);
  Link.transfer link ~bytes:50.0 (fun () -> times := Engine.now engine :: !times);
  Engine.run engine;
  Alcotest.(check (list (float 1e-9))) "parallel transfers overlap" [ 1.0; 1.0 ] !times

let test_link_invalid () =
  let engine = Engine.create () in
  Alcotest.check_raises "negative latency" (Invalid_argument "Link.create: negative latency")
    (fun () -> ignore (Link.create engine ~latency:(-0.1) ~bandwidth:1.0 ()));
  Alcotest.check_raises "zero bandwidth"
    (Invalid_argument "Link.create: bandwidth must be positive") (fun () ->
      ignore (Link.create engine ~latency:0.1 ~bandwidth:0.0 ()));
  let link = Link.create engine ~latency:0.0 ~bandwidth:1.0 () in
  Alcotest.check_raises "negative transfer" (Invalid_argument "Link.transfer: negative size")
    (fun () -> Link.transfer link ~bytes:(-1.0) (fun () -> ()))

(* ------------------------------------------------------------- Topology *)

let test_topology_uniform () =
  let engine = Engine.create () in
  let topo = Topology.uniform engine ~n:4 ~speed:10.0 ~latency:0.01 ~bandwidth:1e6 () in
  Alcotest.(check int) "size" 4 (Topology.size topo);
  check_float "node speed" 10.0 (Node.base_speed (Topology.node topo 2));
  check_float "remote latency" 0.01 (Link.latency (Topology.link topo ~src:0 ~dst:1));
  Alcotest.(check bool) "local link is fast" true
    (Link.latency (Topology.link topo ~src:2 ~dst:2) < 0.001)

let test_topology_heterogeneous () =
  let engine = Engine.create () in
  let topo = Topology.heterogeneous engine ~speeds:[| 1.0; 2.0; 3.0 |] ~latency:0.01 ~bandwidth:1e6 () in
  Alcotest.(check (list (float 0.0))) "per-node speeds" [ 1.0; 2.0; 3.0 ]
    (List.init (Topology.size topo) (fun i -> Node.base_speed (Topology.node topo i)))

let test_topology_two_site () =
  let engine = Engine.create () in
  let topo =
    Topology.two_site engine ~site_a:[| 10.0; 10.0 |] ~site_b:[| 20.0 |] ~intra_latency:0.001
      ~intra_bandwidth:1e8 ~inter_latency:0.2 ~inter_bandwidth:1e6 ()
  in
  Alcotest.(check int) "three nodes" 3 (Topology.size topo);
  check_float "intra latency" 0.001 (Link.latency (Topology.link topo ~src:0 ~dst:1));
  check_float "inter latency" 0.2 (Link.latency (Topology.link topo ~src:0 ~dst:2));
  check_float "user link to remote site is wide-area" 0.2 (Link.latency (Topology.user_link topo 2));
  check_float "user link to home site is local" 0.001 (Link.latency (Topology.user_link topo 0))

let test_topology_bounds () =
  let engine = Engine.create () in
  let topo = Topology.uniform engine ~n:2 ~speed:1.0 ~latency:0.01 ~bandwidth:1e6 () in
  Alcotest.check_raises "node index" (Invalid_argument "Topology.node: index out of range")
    (fun () -> ignore (Topology.node topo 2));
  Alcotest.check_raises "link index" (Invalid_argument "Topology.link: index out of range")
    (fun () -> ignore (Topology.link topo ~src:0 ~dst:5))

(* -------------------------------------------------------------- Loadgen *)

(* Runs [profile] on a one-node grid, reading the availability every 0.25 s;
   returns the node and the [(time, availability)] readings. *)
let run_profile ?rng ~horizon profile =
  let engine = Engine.create () in
  let topo = Topology.uniform engine ~n:1 ~speed:10.0 ~latency:0.01 ~bandwidth:1e6 () in
  Loadgen.apply_until ?rng ~horizon topo 0 profile;
  let node = Topology.node topo 0 in
  let seen = sample engine ~every:0.25 ~horizon (fun () -> Node.availability node) in
  Engine.run ~until:horizon engine;
  (node, seen ())

let test_loadgen_constant () =
  let node, _ = run_profile ~horizon:10.0 (Loadgen.Constant 0.4) in
  check_float "constant applied" 0.4 (Node.availability node)

let test_loadgen_step () =
  let engine = Engine.create () in
  let topo = Topology.uniform engine ~n:1 ~speed:10.0 ~latency:0.01 ~bandwidth:1e6 () in
  Loadgen.apply_until ~horizon:infinity topo 0 (Loadgen.Step { at = 5.0; level = 0.2 });
  Engine.run ~until:4.0 engine;
  check_float "before the step" 1.0 (Node.availability (Topology.node topo 0));
  Engine.run ~until:6.0 engine;
  check_float "after the step" 0.2 (Node.availability (Topology.node topo 0))

let test_loadgen_steps_schedule () =
  let engine = Engine.create () in
  let topo = Topology.uniform engine ~n:1 ~speed:10.0 ~latency:0.01 ~bandwidth:1e6 () in
  Loadgen.apply_until ~horizon:infinity topo 0 (Loadgen.Steps [ (1.0, 0.5); (2.0, 0.9) ]);
  Engine.run ~until:1.5 engine;
  check_float "first step" 0.5 (Node.availability (Topology.node topo 0));
  Engine.run ~until:3.0 engine;
  check_float "second step" 0.9 (Node.availability (Topology.node topo 0))

let test_loadgen_sine_bounded () =
  let _, readings =
    run_profile ~horizon:50.0
      (Loadgen.Sine { period = 10.0; base = 0.6; amplitude = 0.3; sample_every = 0.5 })
  in
  let values = List.map snd readings in
  List.iter
    (fun v -> if v < 0.0 || v > 1.0 then Alcotest.fail "sine availability out of clamp range")
    values;
  (* The signal must actually oscillate. *)
  let lo = List.fold_left Float.min 1.0 values and hi = List.fold_left Float.max 0.0 values in
  Alcotest.(check bool) "oscillates" true (hi -. lo > 0.3)

let test_loadgen_random_walk_bounds () =
  let rng = Rng.create 4 in
  let _, readings =
    run_profile ~rng ~horizon:200.0
      (Loadgen.Random_walk { every = 1.0; sigma = 0.3; lo = 0.2; hi = 0.9 })
  in
  (* The node stays dedicated until the walk's first step at t = 1. *)
  List.iter
    (fun (t, v) ->
      if t > 1.0 && (v < 0.2 -. 1e-9 || v > 0.9 +. 1e-9) then
        Alcotest.fail (Printf.sprintf "walk escaped bounds: %f at %f" v t))
    readings

let test_loadgen_markov_levels () =
  let rng = Rng.create 6 in
  let _, readings =
    run_profile ~rng ~horizon:500.0
      (Loadgen.Markov_on_off { to_busy_rate = 0.2; to_free_rate = 0.2; busy_level = 0.3 })
  in
  let values = List.map snd readings in
  List.iter
    (fun v -> if v <> 1.0 && v <> 0.3 then Alcotest.fail "markov level not in {1.0, 0.3}")
    values;
  Alcotest.(check bool) "visits both states" true
    (List.mem 0.3 values && List.mem 1.0 values)

let test_loadgen_needs_rng () =
  let engine = Engine.create () in
  let topo = Topology.uniform engine ~n:1 ~speed:10.0 ~latency:0.01 ~bandwidth:1e6 () in
  Alcotest.check_raises "stochastic profile without rng"
    (Invalid_argument "Loadgen: this profile is stochastic and needs ~rng") (fun () ->
      Loadgen.apply_until ~horizon:infinity topo 0
        (Loadgen.Random_walk { every = 1.0; sigma = 0.1; lo = 0.0; hi = 1.0 }))

let test_loadgen_playback () =
  let engine = Engine.create () in
  let topo = Topology.uniform engine ~n:1 ~speed:10.0 ~latency:0.01 ~bandwidth:1e6 () in
  Loadgen.apply_until ~horizon:infinity topo 0 (Loadgen.Playback [ (0.0, 0.8); (10.0, 0.6) ]);
  Engine.run ~until:11.0 engine;
  check_float "trace replayed" 0.6 (Node.availability (Topology.node topo 0))


let test_link_quality_scales_costs () =
  let engine = Engine.create () in
  let link = Link.create engine ~latency:0.1 ~bandwidth:100.0 () in
  check_float "nominal quality" 1.0 (Link.quality link);
  Link.set_quality link 0.5;
  check_float "effective latency doubles" 0.2 (Link.effective_latency link);
  check_float "effective bandwidth halves" 50.0 (Link.effective_bandwidth link);
  check_float "transfer time at quality 0.5" 1.2 (Link.transfer_time link ~bytes:50.0);
  Link.set_quality link 0.0;
  check_float "quality clamped at 0.01" 0.01 (Link.quality link);
  Link.set_quality link 5.0;
  check_float "quality clamped at 1" 1.0 (Link.quality link)

let test_link_quality_history () =
  let engine = Engine.create () in
  let link = Link.create engine ~latency:0.1 ~bandwidth:100.0 () in
  ignore (Engine.schedule engine ~delay:3.0 (fun () -> Link.set_quality link 0.25));
  let seen = probe engine [ 1.0; 4.0 ] (fun () -> Link.quality link) in
  Engine.run engine;
  Alcotest.(check (list (float 1e-9))) "quality before, after" [ 1.0; 0.25 ] (seen ())

(* --------------------------------------------------------------- Netgen *)

module Netgen = Aspipe_grid.Netgen

let test_netgen_pair_step () =
  let engine = Engine.create () in
  let topo = Topology.uniform engine ~n:3 ~speed:10.0 ~latency:0.01 ~bandwidth:1e6 () in
  Netgen.apply_pair ~horizon:100.0 topo 0 1 (Loadgen.Step { at = 5.0; level = 0.2 });
  Engine.run ~until:6.0 engine;
  check_float "forward degraded" 0.2 (Link.quality (Topology.link topo ~src:0 ~dst:1));
  check_float "backward degraded" 0.2 (Link.quality (Topology.link topo ~src:1 ~dst:0));
  check_float "other pairs untouched" 1.0 (Link.quality (Topology.link topo ~src:0 ~dst:2))

let test_netgen_needs_rng () =
  let engine = Engine.create () in
  let topo = Topology.uniform engine ~n:2 ~speed:10.0 ~latency:0.01 ~bandwidth:1e6 () in
  Alcotest.check_raises "stochastic profile without rng"
    (Invalid_argument "Netgen: this profile is stochastic and needs ~rng") (fun () ->
      Netgen.apply_pair ~horizon:10.0 topo 0 1
        (Loadgen.Random_walk { every = 1.0; sigma = 0.1; lo = 0.1; hi = 1.0 }))

(* Links and nodes run one profile driver: a profile and a seed give a
   link's quality the level sequence they give a node's availability,
   random walks included (both signals start at 1.0). *)
let test_netgen_matches_loadgen () =
  let horizon = 60.0 in
  List.iter
    (fun (name, profile) ->
      let _, node_levels = run_profile ~rng:(Rng.create 11) ~horizon profile in
      let engine = Engine.create () in
      let topo = Topology.uniform engine ~n:2 ~speed:10.0 ~latency:0.01 ~bandwidth:1e6 () in
      Netgen.apply_pair ~rng:(Rng.create 11) ~horizon topo 0 1 profile;
      let link = Topology.link topo ~src:0 ~dst:1 in
      let link_levels = sample engine ~every:0.25 ~horizon (fun () -> Link.quality link) in
      Engine.run ~until:horizon engine;
      Alcotest.(check (list (pair (float 0.0) (float 0.0))))
        (name ^ ": link reads the node's levels") node_levels (link_levels ()))
    [
      ("sine", Loadgen.Sine { period = 10.0; base = 0.6; amplitude = 0.3; sample_every = 0.5 });
      ( "markov",
        Loadgen.Markov_on_off { to_busy_rate = 0.2; to_free_rate = 0.2; busy_level = 0.3 } );
      ("random walk", Loadgen.Random_walk { every = 1.0; sigma = 0.3; lo = 0.2; hi = 0.9 });
    ]

let test_monitor_link_forecast () =
  let engine = Engine.create () in
  let topo = Topology.uniform engine ~n:2 ~speed:10.0 ~latency:0.01 ~bandwidth:1e6 () in
  let monitor =
    Monitor.create ~sensor:Monitor.perfect_sensor ~rng:(Rng.create 2) ~every:1.0 ~horizon:60.0
      topo
  in
  Link.set_quality (Topology.link topo ~src:0 ~dst:1) 0.4;
  Link.set_quality (Topology.user_link topo 1) 0.6;
  Engine.run ~until:40.0 engine;
  check_close ~eps:0.02 "link forecast tracks truth" 0.4
    (Monitor.link_forecast monitor ~src:0 ~dst:1);
  check_close ~eps:0.02 "user link forecast tracks truth" 0.6
    (Monitor.user_link_forecast monitor 1);
  check_float "diagonal is nominal" 1.0 (Monitor.link_forecast monitor ~src:1 ~dst:1);
  check_close ~eps:0.02 "unaffected link stays nominal" 1.0
    (Monitor.link_forecast monitor ~src:1 ~dst:0)

(* -------------------------------------------------------------- Monitor *)

let monitored_topology ?(n = 2) () =
  let engine = Engine.create () in
  let topo = Topology.uniform engine ~n ~speed:10.0 ~latency:0.01 ~bandwidth:1e6 () in
  (engine, topo)

let test_monitor_perfect_tracks_truth () =
  let engine, topo = monitored_topology () in
  let monitor =
    Monitor.create ~sensor:Monitor.perfect_sensor ~rng:(Rng.create 1) ~every:1.0 ~horizon:100.0
      topo
  in
  Node.set_availability (Topology.node topo 1) 0.35;
  Engine.run ~until:60.0 engine;
  check_close ~eps:0.02 "forecast converges to truth" 0.35 (Monitor.node_forecast monitor 1);
  Alcotest.(check bool) "samples were taken" true (Monitor.samples_taken monitor > 50)

let test_monitor_before_samples () =
  let _, topo = monitored_topology () in
  let monitor =
    Monitor.create ~rng:(Rng.create 1) ~every:1.0 ~horizon:10.0 topo
  in
  check_float "optimistic before any sample" 1.0 (Monitor.node_forecast monitor 0)

let test_monitor_noisy_bounded () =
  let engine, topo = monitored_topology () in
  let monitor =
    Monitor.create
      ~sensor:{ Monitor.noise = 0.5; dropout = 0.0 }
      ~rng:(Rng.create 3) ~every:1.0 ~horizon:50.0 topo
  in
  Node.set_availability (Topology.node topo 0) 0.9;
  Engine.run ~until:50.0 engine;
  let f = Monitor.node_forecast monitor 0 in
  Alcotest.(check bool) "forecast clamped to [0,1]" true (f >= 0.0 && f <= 1.0)

let test_monitor_total_dropout () =
  let engine, topo = monitored_topology () in
  let monitor =
    Monitor.create
      ~sensor:{ Monitor.noise = 0.0; dropout = 1.0 }
      ~rng:(Rng.create 3) ~every:1.0 ~horizon:20.0 topo
  in
  Engine.run ~until:20.0 engine;
  Alcotest.(check int) "all samples lost" 0 (Monitor.samples_taken monitor);
  check_float "forecast stays at fallback" 1.0 (Monitor.node_forecast monitor 0)

let test_monitor_horizon_stops () =
  let engine, topo = monitored_topology () in
  let monitor = Monitor.create ~rng:(Rng.create 1) ~every:1.0 ~horizon:5.0 topo in
  Engine.run engine;
  (* Per tick: 2 node sensors + 2 user-link sensors + 2 directed link
     sensors = 6 samples; 5 ticks at t=1..5, then the horizon stops it. *)
  Alcotest.(check bool) "sampling stopped near horizon" true
    (Monitor.samples_taken monitor <= 32);
  Alcotest.(check bool) "engine drained (no infinite periodic)" false (Engine.step engine);
  ignore monitor

let test_monitor_forecast_error () =
  let engine, topo = monitored_topology () in
  let monitor =
    Monitor.create ~sensor:Monitor.perfect_sensor ~rng:(Rng.create 1) ~every:1.0 ~horizon:30.0
      topo
  in
  Engine.run ~until:30.0 engine;
  check_close ~eps:1e-6 "constant signal forecast error ~0"
    (Node.availability (Topology.node topo 0))
    (Monitor.node_forecast monitor 0)

(* ---------------------------------------------------------------- Trace *)

let sample_trace () =
  let t = Trace.create () in
  Trace.record_service t { Trace.item = 0; stage = 0; node = 1; start = 0.0; finish = 1.0 };
  Trace.record_service t { Trace.item = 0; stage = 1; node = 2; start = 1.5; finish = 2.0 };
  Trace.record_service t { Trace.item = 1; stage = 0; node = 1; start = 1.0; finish = 2.5 };
  Trace.record_transfer t
    { Trace.item = 0; from_stage = 0; src = 1; dst = 2; start = 1.0; finish = 1.5 };
  Trace.record_completion t ~item:0 ~time:2.2;
  Trace.record_completion t ~item:1 ~time:4.0;
  t

let test_trace_completions () =
  let t = sample_trace () in
  Alcotest.(check int) "count" 2 (Trace.items_completed t);
  check_float "makespan" 4.0 (Trace.makespan t);
  check_float "throughput" 0.5 (Trace.throughput t);
  Alcotest.(check (list (pair int (float 0.0)))) "ordered completions" [ (0, 2.2); (1, 4.0) ]
    (Array.to_list (Trace.completions t))

let test_trace_throughput_after () =
  let t = sample_trace () in
  check_float "ignoring the fill" (1.0 /. 1.0) (Trace.throughput_after t 3.0);
  check_float "empty tail" 0.0 (Trace.throughput_after t 5.0)

let test_trace_series () =
  let t = sample_trace () in
  let series = Trace.throughput_series t ~window:2.0 in
  Alcotest.(check int) "two windows" 2 (Array.length series);
  check_float "first window midpoint" 1.0 (fst series.(0));
  check_float "first window rate" 0.0 (snd series.(0));
  check_float "second window rate" 1.0 (snd series.(1));
  Alcotest.check_raises "bad window"
    (Invalid_argument "Trace.throughput_series: window must be positive") (fun () ->
      ignore (Trace.throughput_series t ~window:0.0))

let test_trace_series_empty () =
  let t = Trace.create () in
  Alcotest.(check int) "no completions -> empty series" 0
    (Array.length (Trace.throughput_series t ~window:2.0))

let test_trace_series_single () =
  let t = Trace.create () in
  Trace.record_completion t ~item:0 ~time:3.0;
  let series = Trace.throughput_series t ~window:2.0 in
  Alcotest.(check int) "ceil(3/2) windows" 2 (Array.length series);
  check_float "first window empty" 0.0 (snd series.(0));
  check_float "lone completion in second window" 0.5 (snd series.(1));
  check_float "second midpoint" 3.0 (fst series.(1))

let test_trace_series_boundary () =
  (* A completion exactly at span = k·window would index one past the last
     window without the clamp. *)
  let t = Trace.create () in
  Trace.record_completion t ~item:0 ~time:4.0;
  let series = Trace.throughput_series t ~window:2.0 in
  Alcotest.(check int) "span/window windows" 2 (Array.length series);
  check_float "boundary completion clamped into last window" 0.5 (snd series.(1))

let test_trace_services () =
  let t = sample_trace () in
  Alcotest.(check int) "three services" 3 (List.length (Trace.services t));
  Alcotest.(check (list (float 1e-9))) "stage 0 service times" [ 1.0; 1.5 ]
    (Array.to_list (Trace.service_times t ~stage:0));
  Alcotest.(check int) "services on node 1" 2
    (List.length (List.filter (fun (s : Trace.service) -> s.Trace.node = 1) (Trace.services t)));
  Alcotest.(check int) "one transfer" 1 (List.length (Trace.transfers t))

let test_trace_sojourn () =
  let t = sample_trace () in
  (* item 0: first start 0.0, done 2.2; item 1: first start 1.0, done 4.0. *)
  check_close ~eps:1e-9 "mean sojourn" ((2.2 +. 3.0) /. 2.0) (Trace.mean_sojourn t)

let test_trace_adaptations () =
  let t = Trace.create () in
  let adaptation at =
    {
      Trace.at;
      mapping_before = [| 0; 1 |];
      mapping_after = [| 1; 1 |];
      predicted_gain = 0.5;
      migration_cost = 1.0;
    }
  in
  Trace.record_adaptation t (adaptation 1.0);
  Trace.record_adaptation t (adaptation 2.0);
  Alcotest.(check (list (float 0.0))) "time order" [ 1.0; 2.0 ]
    (List.map (fun (a : Trace.adaptation) -> a.Trace.at) (Trace.adaptations t))

let test_trace_empty () =
  let t = Trace.create () in
  check_float "makespan 0" 0.0 (Trace.makespan t);
  check_float "throughput 0" 0.0 (Trace.throughput t);
  Alcotest.(check bool) "series empty" true (Trace.throughput_series t ~window:1.0 = [||]);
  Alcotest.(check bool) "sojourn nan" true (Float.is_nan (Trace.mean_sojourn t))

(* Entry instants and arrival stamps live in columns indexed by item id.
   Sparse ids (0, 5, 1000) leave NaN holes that must read as "no record":
   the sojourns are those of the records, the first record per item wins,
   a completion with no entry instant is skipped, and a negative id is
   refused. *)
let test_trace_sparse_ids () =
  let t = Trace.create () in
  Trace.record_entry t ~item:1000 ~time:3.0;
  Trace.record_entry t ~item:5 ~time:1.0;
  Trace.record_entry t ~item:0 ~time:0.5;
  Trace.record_entry t ~item:5 ~time:9.0;
  Trace.record_arrival t ~item:1000 ~time:2.0;
  Trace.record_arrival t ~item:1000 ~time:2.5;
  Trace.record_completion t ~item:5 ~time:4.0;
  Trace.record_completion t ~item:7 ~time:4.5;
  Trace.record_completion t ~item:1000 ~time:6.0;
  Trace.record_completion t ~item:0 ~time:7.0;
  Alcotest.(check (list (pair int (float 0.0))))
    "sojourns in completion order, unrecorded item 7 skipped"
    [ (5, 3.0); (1000, 4.0); (0, 6.5) ]
    (Array.to_list (Trace.sojourns t));
  check_float "mean sojourn" ((3.0 +. 4.0 +. 6.5) /. 3.0) (Trace.mean_sojourn t);
  Alcotest.check_raises "negative entry id"
    (Invalid_argument "Trace.record_entry: item ids must be non-negative") (fun () ->
      Trace.record_entry t ~item:(-1) ~time:0.0);
  Alcotest.check_raises "negative arrival id"
    (Invalid_argument "Trace.record_arrival: item ids must be non-negative") (fun () ->
      Trace.record_arrival t ~item:(-3) ~time:0.0)

(* ---------------------------------------------------------- Trace_stats *)

module Trace_stats = Aspipe_grid.Trace_stats

let test_trace_stats_per_stage () =
  let t = sample_trace () in
  match Trace_stats.per_stage t ~stages:2 with
  | [ s0; s1 ] ->
      Alcotest.(check int) "stage 0 services" 2 s0.Trace_stats.services;
      check_close ~eps:1e-9 "stage 0 mean" 1.25 s0.Trace_stats.mean_service_time;
      check_close ~eps:1e-9 "stage 0 busy" 2.5 s0.Trace_stats.total_busy;
      Alcotest.(check (list int)) "stage 0 nodes" [ 1 ] s0.Trace_stats.nodes_used;
      Alcotest.(check int) "stage 1 services" 1 s1.Trace_stats.services;
      Alcotest.(check (list int)) "stage 1 nodes" [ 2 ] s1.Trace_stats.nodes_used
  | _ -> Alcotest.fail "expected two stage summaries"

let test_trace_stats_node_busy () =
  let t = sample_trace () in
  let busy node =
    List.fold_left
      (fun acc (s : Trace.service) ->
        if s.Trace.node = node then acc +. (s.Trace.finish -. s.Trace.start) else acc)
      0.0 (Trace.services t)
  in
  check_close ~eps:1e-9 "node 1 busy time" 2.5 (busy 1);
  check_float "unused node" 0.0 (busy 7)

let test_trace_stats_gantt () =
  let t = sample_trace () in
  let rows = Trace_stats.gantt_rows t in
  Alcotest.(check int) "header + 3 services + 1 transfer" 5 (List.length rows);
  Alcotest.(check (list string)) "header" [ "kind"; "item"; "stage"; "nodes"; "start"; "finish" ]
    (List.hd rows)

let test_trace_stats_table_renders () =
  let t = sample_trace () in
  let table = Trace_stats.summary_table t ~stages:2 in
  Alcotest.(check bool) "renders" true
    (String.length (Aspipe_util.Render.Table.to_string table) > 0)

let () =
  Alcotest.run "aspipe_grid"
    [
      ( "node",
        [
          Alcotest.test_case "rates" `Quick test_node_rates;
          Alcotest.test_case "invalid speed" `Quick test_node_invalid_speed;
          Alcotest.test_case "history" `Quick test_node_history;
        ] );
      ( "link",
        [
          Alcotest.test_case "transfer time" `Quick test_link_transfer_time;
          Alcotest.test_case "delivery" `Quick test_link_delivery;
          Alcotest.test_case "uncontended overlap" `Quick test_link_uncontended_overlap;
          Alcotest.test_case "invalid" `Quick test_link_invalid;
          Alcotest.test_case "quality scales costs" `Quick test_link_quality_scales_costs;
          Alcotest.test_case "quality history" `Quick test_link_quality_history;
        ] );
      ( "netgen",
        [
          Alcotest.test_case "pair step" `Quick test_netgen_pair_step;
          Alcotest.test_case "needs rng" `Quick test_netgen_needs_rng;
          Alcotest.test_case "same levels as a node" `Quick test_netgen_matches_loadgen;
          Alcotest.test_case "monitor link forecast" `Quick test_monitor_link_forecast;
        ] );
      ( "topology",
        [
          Alcotest.test_case "uniform" `Quick test_topology_uniform;
          Alcotest.test_case "heterogeneous" `Quick test_topology_heterogeneous;
          Alcotest.test_case "two site" `Quick test_topology_two_site;
          Alcotest.test_case "bounds" `Quick test_topology_bounds;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "constant" `Quick test_loadgen_constant;
          Alcotest.test_case "step" `Quick test_loadgen_step;
          Alcotest.test_case "steps" `Quick test_loadgen_steps_schedule;
          Alcotest.test_case "sine bounded" `Quick test_loadgen_sine_bounded;
          Alcotest.test_case "walk bounds" `Quick test_loadgen_random_walk_bounds;
          Alcotest.test_case "markov levels" `Quick test_loadgen_markov_levels;
          Alcotest.test_case "needs rng" `Quick test_loadgen_needs_rng;
          Alcotest.test_case "playback" `Quick test_loadgen_playback;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "perfect tracks truth" `Quick test_monitor_perfect_tracks_truth;
          Alcotest.test_case "before samples" `Quick test_monitor_before_samples;
          Alcotest.test_case "noisy bounded" `Quick test_monitor_noisy_bounded;
          Alcotest.test_case "total dropout" `Quick test_monitor_total_dropout;
          Alcotest.test_case "horizon stops" `Quick test_monitor_horizon_stops;
          Alcotest.test_case "forecast error" `Quick test_monitor_forecast_error;
        ] );
      ( "trace_stats",
        [
          Alcotest.test_case "per stage" `Quick test_trace_stats_per_stage;
          Alcotest.test_case "node busy" `Quick test_trace_stats_node_busy;
          Alcotest.test_case "gantt rows" `Quick test_trace_stats_gantt;
          Alcotest.test_case "table renders" `Quick test_trace_stats_table_renders;
        ] );
      ( "trace",
        [
          Alcotest.test_case "completions" `Quick test_trace_completions;
          Alcotest.test_case "throughput after" `Quick test_trace_throughput_after;
          Alcotest.test_case "series" `Quick test_trace_series;
          Alcotest.test_case "series empty" `Quick test_trace_series_empty;
          Alcotest.test_case "series single" `Quick test_trace_series_single;
          Alcotest.test_case "series boundary" `Quick test_trace_series_boundary;
          Alcotest.test_case "services" `Quick test_trace_services;
          Alcotest.test_case "sojourn" `Quick test_trace_sojourn;
          Alcotest.test_case "adaptations" `Quick test_trace_adaptations;
          Alcotest.test_case "empty" `Quick test_trace_empty;
          Alcotest.test_case "sparse ids" `Quick test_trace_sparse_ids;
        ] );
    ]
