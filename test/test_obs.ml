(* Tests for the observability layer: event bus semantics, the metrics
   registry, JSON round-trips, the JSONL and Chrome-trace exporters, and
   determinism of instrumented runs. *)

module Bus = Aspipe_obs.Bus
module Event = Aspipe_obs.Event
module Json = Aspipe_obs.Json
module Metrics = Aspipe_obs.Metrics
module Jsonl = Aspipe_obs.Jsonl
module Trace_event = Aspipe_obs.Trace_event
module Meter = Aspipe_obs.Meter
module Trace = Aspipe_grid.Trace
module Scenario = Aspipe_core.Scenario
module Adaptive = Aspipe_core.Adaptive

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------- Bus *)

let test_bus_stamps_time_and_seq () =
  let clock = ref 0.0 in
  let bus = Bus.create () in
  Bus.set_clock bus (fun () -> !clock);
  let seen = ref [] in
  Bus.subscribe bus (fun e -> seen := e :: !seen);
  Bus.emit bus (Event.Completion { item = 0 });
  clock := 2.5;
  Bus.emit bus (Event.Completion { item = 1 });
  match List.rev !seen with
  | [ a; b ] ->
      check_float "first stamped at 0" 0.0 a.Event.time;
      check_float "second stamped at 2.5" 2.5 b.Event.time;
      Alcotest.(check int) "seq 0" 0 a.Event.seq;
      Alcotest.(check int) "seq 1" 1 b.Event.seq;
      Alcotest.(check int) "events_emitted" 2 (Bus.events_emitted bus)
  | _ -> Alcotest.fail "expected exactly two events"

let test_bus_subscription_order_and_unsubscribe () =
  let bus = Bus.create () in
  let log = ref [] in
  Bus.subscribe bus (fun _ -> log := "a" :: !log);
  Bus.subscribe bus (fun _ -> log := "b" :: !log);
  Bus.emit bus (Event.Completion { item = 0 });
  Alcotest.(check (list string)) "delivered in subscription order" [ "a"; "b" ] (List.rev !log);
  log := [];
  Bus.emit bus (Event.Completion { item = 1 });
  Alcotest.(check (list string)) "sinks stay attached" [ "a"; "b" ] (List.rev !log)

let test_bus_counts_without_sinks () =
  let bus = Bus.create () in
  Alcotest.(check bool) "inactive" false (Bus.active bus);
  Bus.emit bus (Event.Completion { item = 0 });
  Alcotest.(check int) "seq advances with no sinks" 1 (Bus.events_emitted bus)

let test_bus_control_interest () =
  let bus = Bus.create () in
  let seen = ref 0 in
  Bus.subscribe ~interest:Bus.Control bus (fun _ -> incr seen);
  (* A control sink does not, by itself, make the bus active ... *)
  Alcotest.(check bool) "control sink leaves bus inactive" false (Bus.active bus);
  (* ... but it receives every event actually emitted. *)
  Bus.emit bus (Event.Node_crashed { node = 1 });
  Alcotest.(check int) "control sink sees emitted events" 1 !seen;
  Bus.subscribe bus (fun _ -> ());
  Alcotest.(check bool) "an All sink activates" true (Bus.active bus)

let test_bus_many_sinks_ordered () =
  (* Push the sink table through several growth doublings and check that
     the order survives them. *)
  let bus = Bus.create () in
  let log = ref [] in
  for i = 0 to 36 do
    Bus.subscribe bus (fun _ -> log := i :: !log)
  done;
  Bus.emit bus (Event.Completion { item = 0 });
  Alcotest.(check (list int)) "37 sinks fire in subscription order" (List.init 37 Fun.id)
    (List.rev !log)

(* --------------------------------------------------------------- Metrics *)

let counter registry name = List.assoc name (Metrics.snapshot registry).Metrics.counters
let gauge registry name = List.assoc name (Metrics.snapshot registry).Metrics.gauges
let histogram registry name = List.assoc name (Metrics.snapshot registry).Metrics.histograms

let test_metrics_counter_gauge () =
  let registry = Metrics.create () in
  let c = Metrics.Counter.get registry "c" in
  Metrics.Counter.incr c;
  Metrics.Counter.add c 4;
  Alcotest.(check int) "counter accumulates" 5 (counter registry "c");
  let c' = Metrics.Counter.get registry "c" in
  Metrics.Counter.incr c';
  Alcotest.(check int) "get is idempotent (same cell)" 6 (counter registry "c");
  let g = Metrics.Gauge.get registry "g" in
  Metrics.Gauge.set g 2.0;
  Metrics.Gauge.add g 0.5;
  check_float "gauge" 2.5 (gauge registry "g")

let test_metrics_kind_mismatch () =
  let registry = Metrics.create () in
  ignore (Metrics.Counter.get registry "x");
  Alcotest.(check bool) "reusing a name as another kind raises" true
    (try
       ignore (Metrics.Gauge.get registry "x");
       false
     with Invalid_argument _ -> true)

let test_metrics_histogram () =
  let registry = Metrics.create () in
  let h = Metrics.Histogram.get registry "h" in
  List.iter (Metrics.Histogram.observe h) [ 1.0; 2.0; 4.0; 8.0 ];
  Metrics.Histogram.observe h nan;
  (* NaN dropped *)
  Alcotest.(check int) "count excludes NaN" 4 (histogram registry "h").Metrics.count;
  check_float "sum exact" 15.0 (histogram registry "h").Metrics.sum;
  check_float "mean exact" 3.75 (Metrics.Histogram.mean h);
  let p0 = Metrics.Histogram.quantile h 0.0 in
  let p100 = Metrics.Histogram.quantile h 1.0 in
  Alcotest.(check bool) "quantiles clamped to observed range" true
    (p0 >= 1.0 && p100 <= 8.0 && p0 <= p100);
  Metrics.Histogram.observe h 0.0;
  Metrics.Histogram.observe h (-3.0);
  let underflow =
    List.exists
      (fun (lo, hi, n) -> lo = 0.0 && hi = 0.0 && n = 2)
      (histogram registry "h").Metrics.buckets
  in
  Alcotest.(check bool) "non-positive values share the underflow bucket" true underflow

let test_metrics_empty_histogram () =
  let registry = Metrics.create () in
  let h = Metrics.Histogram.get registry "empty" in
  Alcotest.(check bool) "empty mean is nan" true (Float.is_nan (Metrics.Histogram.mean h));
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (Metrics.Histogram.quantile h 0.5));
  (* An all-NaN histogram must render, not crash or print "nan" cells. *)
  let rendered = Metrics.render (Metrics.snapshot registry) in
  Alcotest.(check bool) "render survives empty histogram" true (String.length rendered > 0)

let test_metrics_snapshot_sorted () =
  let registry = Metrics.create () in
  ignore (Metrics.Counter.get registry "zz");
  ignore (Metrics.Counter.get registry "aa");
  let snapshot = Metrics.snapshot registry in
  Alcotest.(check (list string)) "counters name-sorted" [ "aa"; "zz" ]
    (List.map fst snapshot.Metrics.counters)

(* ------------------------------------------------------------------ JSON *)

let test_json_roundtrip () =
  let value =
    Json.Obj
      [
        ("s", Json.String "a \"quoted\"\nline");
        ("i", Json.Int (-42));
        ("f", Json.Float 2.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Float 0.125; Json.String "" ]);
      ]
  in
  match Json.of_string (Json.to_string value) with
  | Ok parsed -> Alcotest.(check bool) "round-trips structurally" true (parsed = value)
  | Error e -> Alcotest.fail ("parse failed: " ^ e)

let test_json_nonfinite_is_null () =
  Alcotest.(check string) "nan serializes as null" "null" (Json.to_string (Json.Float nan));
  Alcotest.(check string) "inf serializes as null" "null"
    (Json.to_string (Json.Float infinity))

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" s)
      | Error _ -> ())
    [ "{"; "[1,]"; "{\"a\" 1}"; "tru"; "\"unterminated"; "1 2" ]

(* ----------------------------------------------------------------- JSONL *)

let test_jsonl_event_fields () =
  let event =
    { Event.time = 1.5; seq = 7; payload = Event.Service_finish { item = 3; stage = 1; node = 2; start = 1.0 } }
  in
  let buffer = Buffer.create 64 in
  Jsonl.sink_to_buffer buffer event;
  match Json.of_string (String.trim (Buffer.contents buffer)) with
  | Error e -> Alcotest.fail ("jsonl line must be valid JSON: " ^ e)
  | Ok json ->
      Alcotest.(check (option string)) "type tag" (Some "service_finish")
        (match Json.member "type" json with Some (Json.String s) -> Some s | _ -> None);
      Alcotest.(check bool) "carries ts, seq and payload fields" true
        (Json.member "ts" json <> None && Json.member "seq" json <> None
        && Json.member "item" json <> None && Json.member "start" json <> None)

(* ------------------------------------------ trace translation (bus sink) *)

let test_trace_subscribe_translates () =
  let clock = ref 0.0 in
  let bus = Bus.create () in
  Bus.set_clock bus (fun () -> !clock);
  let trace = Trace.create () in
  Trace.subscribe trace bus;
  clock := 2.0;
  Bus.emit bus (Event.Service_finish { item = 0; stage = 0; node = 1; start = 1.0 });
  clock := 3.0;
  Bus.emit bus (Event.Transfer { item = 0; from_stage = 0; src = 1; dst = 2; start = 2.0; bytes = 10.0 });
  clock := 4.0;
  Bus.emit bus (Event.Completion { item = 0 });
  Bus.emit bus (Event.Queue_sample { stage = 0; depth = 3 });
  (* ignored *)
  (match Trace.services trace with
  | [ s ] ->
      check_float "finish is the event time" 2.0 s.Trace.finish;
      check_float "start carried in payload" 1.0 s.Trace.start
  | _ -> Alcotest.fail "expected one service");
  Alcotest.(check int) "one transfer" 1 (List.length (Trace.transfers trace));
  Alcotest.(check int) "one completion" 1 (Trace.items_completed trace);
  check_float "completion time" 4.0 (Trace.makespan trace)

(* ----------------------------------------------------- instrumented runs *)

let small_scenario () =
  Scenario.make ~name:"obs-test"
    ~make_topo:(fun engine ->
      Aspipe_grid.Topology.uniform engine ~n:3 ~speed:10.0 ~latency:0.01 ~bandwidth:1e7 ())
    ~loads:[ (0, Aspipe_grid.Loadgen.Step { at = 10.0; level = 0.2 }) ]
    ~stages:(Aspipe_workload.Synthetic.hot_stage ~n:4 ~factor:3.0 ())
    ~input:(Aspipe_skel.Stream_spec.make ~arrival:(Aspipe_skel.Stream_spec.Spaced 0.3) ~items:60 ())
    ~horizon:1e5 ()

let jsonl_of_run ~seed =
  let buffer = Buffer.create 4096 in
  ignore
    (Adaptive.run
       ~instrument:(fun bus -> Bus.subscribe bus (Jsonl.sink_to_buffer buffer))
       ~scenario:(small_scenario ()) ~seed ());
  Buffer.contents buffer

let test_jsonl_deterministic () =
  let a = jsonl_of_run ~seed:11 in
  let b = jsonl_of_run ~seed:11 in
  Alcotest.(check bool) "log is non-empty" true (String.length a > 0);
  Alcotest.(check string) "same seed, byte-identical JSONL" a b;
  let c = jsonl_of_run ~seed:12 in
  Alcotest.(check bool) "different seed diverges" true (a <> c)

let test_instrumentation_does_not_change_run () =
  let plain = Adaptive.run ~scenario:(small_scenario ()) ~seed:5 () in
  let observed =
    Adaptive.run
      ~instrument:(fun bus ->
        ignore (Meter.attach bus);
        Bus.subscribe bus (Jsonl.sink_to_buffer (Buffer.create 4096)))
      ~scenario:(small_scenario ()) ~seed:5 ()
  in
  check_float "makespan unchanged by sinks" plain.Adaptive.makespan observed.Adaptive.makespan;
  Alcotest.(check int) "adaptations unchanged by sinks" plain.Adaptive.adaptation_count
    observed.Adaptive.adaptation_count

let test_trace_event_export_valid () =
  let collector = Trace_event.create () in
  ignore
    (Adaptive.run
       ~instrument:(fun bus -> Trace_event.attach collector bus)
       ~scenario:(small_scenario ()) ~seed:5 ());
  match Json.of_string (Trace_event.to_string collector) with
  | Error e -> Alcotest.fail ("trace export must be valid JSON: " ^ e)
  | Ok json -> (
      match Json.member "traceEvents" json with
      | Some (Json.List events) ->
          let phases =
            List.filter_map
              (fun e -> match Json.member "ph" e with Some (Json.String p) -> Some p | _ -> None)
              events
          in
          Alcotest.(check bool) "has complete slices" true (List.mem "X" phases);
          Alcotest.(check bool) "has counter samples" true (List.mem "C" phases);
          Alcotest.(check bool) "has track metadata" true (List.mem "M" phases)
      | _ -> Alcotest.fail "missing traceEvents array")

let test_meter_counts_completions () =
  let meter = ref None in
  let report =
    Adaptive.run
      ~instrument:(fun bus -> meter := Some (Meter.attach bus))
      ~scenario:(small_scenario ()) ~seed:5 ()
  in
  match !meter with
  | None -> Alcotest.fail "instrument hook not called"
  | Some meter ->
      let snapshot = Meter.snapshot meter in
      let counter name = List.assoc_opt name snapshot.Metrics.counters in
      Alcotest.(check (option int)) "items.completed matches the trace" (Some 60)
        (counter "items.completed");
      Alcotest.(check (option int)) "adaptations.committed matches the report"
        (Some report.Adaptive.adaptation_count)
        (counter "adaptations.committed");
      Alcotest.(check bool) "service-time histograms present" true
        (List.mem_assoc "stage.0.service_time" snapshot.Metrics.histograms)

(* Golden determinism test for the meter-ordering fix: utilization gauges
   register in sorted node order, so the rendered snapshot cannot depend on
   the order nodes first appear in the event stream (hash order). *)
let test_meter_snapshot_order_independent () =
  let snapshot_for nodes =
    let clock = ref 0.0 in
    let bus = Bus.create () in
  Bus.set_clock bus (fun () -> !clock);
    let meter = Meter.attach bus in
    List.iter
      (fun node ->
        clock := !clock +. 1.0;
        Bus.emit bus (Event.Service_finish { item = node; stage = 0; node; start = !clock -. 0.5 }))
      nodes;
    Meter.snapshot meter
  in
  let ascending = snapshot_for [ 0; 1; 2; 3; 5; 8; 13 ] in
  let scrambled = snapshot_for [ 13; 5; 0; 8; 2; 1; 3 ] in
  Alcotest.(check string) "rendered snapshot independent of node arrival order"
    (Metrics.render ascending) (Metrics.render scrambled);
  let gauge_names = List.map fst ascending.Metrics.gauges in
  Alcotest.(check (list string)) "utilization gauges come out sorted"
    (List.sort compare gauge_names) gauge_names;
  Alcotest.(check bool) "utilization gauges present" true
    (List.mem_assoc "node.13.utilization" ascending.Metrics.gauges)

let () =
  Alcotest.run "aspipe_obs"
    [
      ( "bus",
        [
          Alcotest.test_case "stamps time and seq" `Quick test_bus_stamps_time_and_seq;
          Alcotest.test_case "order and unsubscribe" `Quick
            test_bus_subscription_order_and_unsubscribe;
          Alcotest.test_case "counts without sinks" `Quick test_bus_counts_without_sinks;
          Alcotest.test_case "control interest" `Quick test_bus_control_interest;
          Alcotest.test_case "many sinks ordered" `Quick test_bus_many_sinks_ordered;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter gauge" `Quick test_metrics_counter_gauge;
          Alcotest.test_case "kind mismatch" `Quick test_metrics_kind_mismatch;
          Alcotest.test_case "histogram" `Quick test_metrics_histogram;
          Alcotest.test_case "empty histogram" `Quick test_metrics_empty_histogram;
          Alcotest.test_case "snapshot sorted" `Quick test_metrics_snapshot_sorted;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "nonfinite" `Quick test_json_nonfinite_is_null;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "jsonl fields" `Quick test_jsonl_event_fields;
          Alcotest.test_case "trace subscribe" `Quick test_trace_subscribe_translates;
          Alcotest.test_case "jsonl deterministic" `Quick test_jsonl_deterministic;
          Alcotest.test_case "sinks are pure observers" `Quick
            test_instrumentation_does_not_change_run;
          Alcotest.test_case "trace-event valid" `Quick test_trace_event_export_valid;
          Alcotest.test_case "meter counts" `Quick test_meter_counts_completions;
          Alcotest.test_case "meter snapshot order-independent" `Quick
            test_meter_snapshot_order_independent;
        ] );
    ]
