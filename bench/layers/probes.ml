(* Layer probes: one fixed input per layer, timed in isolation. Every traced
   run executes all of them, whatever its workload, so a per-layer number
   means the same thing on every workload. The DES and simulator shapes
   are BENCH_4's, so those rows stay comparable with that history. *)

module Engine = Aspipe_des.Engine
module Topology = Aspipe_grid.Topology
module Trace = Aspipe_grid.Trace
module Skel_sim = Aspipe_skel.Skel_sim
module Skel_mc = Aspipe_skel.Skel_mc
module Stage = Aspipe_skel.Stage
module Stream_spec = Aspipe_skel.Stream_spec
module Spsc = Aspipe_util.Spsc
module Rng = Aspipe_util.Rng
module Bus = Aspipe_obs.Bus
module Event = Aspipe_obs.Event
module Costspec = Aspipe_model.Costspec
module Mapping = Aspipe_model.Mapping
module Predictor = Aspipe_model.Predictor
module Search = Aspipe_model.Search
module Scenario = Aspipe_core.Scenario
module Arrival = Aspipe_serve.Arrival
module Slo = Aspipe_serve.Slo
module Pool = Aspipe_runner.Pool

let timed = Workloads.timed
let scaled (size : Workloads.size) full smoke = match size with Full -> full | Smoke -> smoke

(* [timers] self-rescheduling callbacks on one engine, deterministic delays,
   no telemetry: the raw schedule/pop/fire loop. *)
let des size =
  let timers = 512 and events = scaled size 500_000 20_000 in
  let engine = Engine.create () in
  let fired = ref 0 in
  for i = 0 to timers - 1 do
    let rec self () =
      incr fired;
      if !fired + timers <= events then begin
        let delay = 0.001 +. (0.0001 *. Float.of_int (((i * 7) + !fired) mod 64)) in
        ignore (Engine.schedule engine ~delay self)
      end
    in
    ignore (Engine.schedule engine ~delay:(0.0001 *. Float.of_int (i + 1)) self)
  done;
  let a0 = Gc.allocated_bytes () in
  let (), secs = timed (fun () -> Engine.run ~until:1e12 engine) in
  let bytes = Gc.allocated_bytes () -. a0 in
  let n = Float.of_int !fired in
  [ ("des.events_per_s", n /. secs); ("des.bytes_per_event", bytes /. n) ]

(* A 4-stage pipeline on 3 nodes, with a trace sink (observed) and without
   (the guarded emit path). *)
let skel_sim size =
  let items = scaled size 5_000 200 in
  let once observed =
    let engine = Engine.create () in
    let topo = Topology.uniform engine ~n:3 ~speed:10.0 ~latency:0.01 ~bandwidth:1e7 () in
    let trace = if observed then Some (Trace.create ()) else None in
    let sim =
      Skel_sim.create ?trace ~rng:(Rng.create 42) ~topo
        ~stages:(Stage.balanced ~n:4 ~work:1.0 ())
        ~mapping:[| 0; 1; 2; 0 |]
        ~input:(Stream_spec.make ~items ())
        ()
    in
    let (), secs = timed (fun () -> Skel_sim.run_to_completion sim) in
    Float.of_int items /. secs
  in
  [ ("skel_sim.items_per_s", once true); ("skel_sim.unobserved_items_per_s", once false) ]

(* One subscribed sink: the cost every full-stream emit pays. *)
let obs size =
  let n = scaled size 1_000_000 10_000 in
  let bus = Bus.create () in
  let seen = ref 0 in
  ignore (Bus.subscribe bus (fun _ -> incr seen));
  let (), secs =
    timed (fun () ->
        for item = 1 to n do
          (* lint: unguarded-emit-ok the probe measures the raw emit cost *)
          Bus.emit bus (Event.Completion { item })
        done)
  in
  [ ("obs.emit_ns", secs *. 1e9 /. Float.of_int n) ]

(* The adaptive_search t = 0 spec (9 stages x 4 nodes) and the serve_day
   spec (4 stages x 5 nodes), from ground truth. *)
let spec_of scenario =
  let topo = Scenario.build scenario ~rng:(Rng.create 1) in
  Costspec.of_topology ~topo ~stages:scenario.Scenario.stages ~input:scenario.Scenario.input ()

let model size =
  let adaptive = spec_of (Workloads.adaptive_scenario ~items:100) in
  let serve = Predictor.make (spec_of (Workloads.serve_scenario ~period:100.0)) in
  let chosen, choose_s = timed (fun () -> Predictor.choose (Predictor.make adaptive)) in
  let walk, walk_s =
    timed (fun () -> Search.exhaustive_spec ~prune:false ~canonical:false adaptive)
  in
  let rounds = scaled size 20 2 in
  let (), enum_s =
    timed (fun () ->
        for _ = 1 to rounds do
          List.iter
            (fun m -> ignore (Predictor.evaluate serve m))
            (Mapping.enumerate ~stages:4 ~processors:5 ())
        done)
  in
  [
    ("model.choose_ms", choose_s *. 1e3);
    ("model.scored", Float.of_int chosen.Search.evaluated);
    ("model.incr_moves_per_s", Float.of_int walk.Search.evaluated /. walk_s);
    ("model.enumerate_eval_ms", enum_s *. 1e3 /. Float.of_int rounds);
  ]

let serve size =
  let period = scaled size 14_400.0 1_200.0 in
  let arrival = Arrival.diurnal ~base:1.6 ~amplitude:1.2 ~period in
  let times, arrivals_s = timed (fun () -> Arrival.times ~until:period ~rng:(Rng.create 21) arrival) in
  let n = scaled size 1_000_000 10_000 in
  let meter = Slo.create (Slo.spec ~target_quantile:0.95 ~threshold:6.0 ~window:30.0) in
  let (), observe_s =
    timed (fun () ->
        for i = 1 to n do
          Slo.observe meter ~sojourn:(Float.of_int (i land 15))
        done)
  in
  [
    ("serve.arrivals_per_s", Float.of_int (Array.length times) /. arrivals_s);
    ("serve.slo_observe_ns", observe_s *. 1e9 /. Float.of_int n);
  ]

let skel_mc size =
  let items = scaled size 1_000_000 10_000 in
  let (_ : int), seq_s = timed (fun () -> Workloads.mc_sequential ~seed:0 items) in
  let spawn =
    List.init 5 (fun _ -> snd (timed (fun () -> ignore (Workloads.mc_parallel ~seed:0 1))))
  in
  [
    ("skel_mc.seq_items_per_s", Float.of_int items /. seq_s);
    ("skel_mc.spawn_join_ms", Sample.median spawn *. 1e3);
  ]

(* Two domains over one ring: the producer pushes [n] ints in chunks of
   [batch], the caller pops them. *)
let handoff_ns ~batch n =
  let ring = Spsc.create ~capacity:Workloads.mc_capacity in
  let (), secs =
    timed (fun () ->
        let producer =
          Domain.spawn (fun () ->
              let buf = Array.make batch None in
              let i = ref 0 in
              while !i < n do
                let len = min batch (n - !i) in
                for k = 0 to len - 1 do
                  buf.(k) <- Some (!i + k)
                done;
                Spsc.push_chunk ring buf ~pos:0 ~len;
                i := !i + len
              done;
              Spsc.close ring)
        in
        let buf = Array.make batch None in
        while Spsc.pop_chunk ring buf ~pos:0 ~len:batch > 0 do
          ()
        done;
        Domain.join producer)
  in
  secs *. 1e9 /. Float.of_int n

let spsc size =
  let n = scaled size 1_000_000 10_000 in
  [ ("spsc.handoff_ns_b1", handoff_ns ~batch:1 n); ("spsc.handoff_ns_b64", handoff_ns ~batch:64 n) ]

(* No-op tasks through a pool of nproc workers; pool start-up and shutdown
   are outside the timed region. *)
let pool size =
  let n = scaled size 100_000 1_000 in
  let p = Pool.create ~workers:(Domain.recommended_domain_count ()) () in
  let tasks = Array.init n Fun.id in
  let (_ : int array), secs = timed (fun () -> Pool.map p Fun.id tasks) in
  Pool.shutdown p;
  [ ("pool.task_overhead_us", secs *. 1e6 /. Float.of_int n) ]

let all size =
  List.concat_map (fun probe -> probe size) [ des; skel_sim; obs; model; serve; skel_mc; spsc; pool ]
