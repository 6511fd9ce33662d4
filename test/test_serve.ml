(* Tests for the serving subsystem: arrival generators against closed-form
   expected counts, trace-replay round-trips, the CLI spec grammar, SLO
   window arithmetic, the recorded per-item sojourn series, and end-to-end
   determinism of the serving driver — including E21 byte-for-byte under
   --jobs 1 vs --jobs 4. *)

module Rng = Aspipe_util.Rng
module Engine = Aspipe_des.Engine
module Bus = Aspipe_obs.Bus
module Event = Aspipe_obs.Event
module Trace = Aspipe_grid.Trace
module Stage = Aspipe_skel.Stage
module Stream_spec = Aspipe_skel.Stream_spec
module Scenario = Aspipe_core.Scenario
module Arrival = Aspipe_serve.Arrival
module Slo = Aspipe_serve.Slo
module Autoscaler = Aspipe_serve.Autoscaler
module Serve = Aspipe_serve.Serve
module Campaign = Aspipe_runner.Campaign

let seed = 7

(* ------------------------------------------------------------- arrivals *)

(* A Poisson(N) count stays within 6 standard deviations of N for any
   draw we would keep; with a fixed seed this is a deterministic
   regression band, not a flaky statistical test. *)
let check_count name expected n =
  let sd = sqrt expected in
  let lo = expected -. (6.0 *. sd) and hi = expected +. (6.0 *. sd) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d arrivals within [%.0f, %.0f]" name n lo hi)
    true
    (let x = Float.of_int n in x >= lo && x <= hi)

let test_poisson_count () =
  let t = Arrival.poisson ~rate:2.0 in
  check_count "poisson 2/s over 1000 s" 2000.0
    (Array.length (Arrival.times ~until:1000.0 ~rng:(Rng.create seed) t))

let test_nhpp_counts () =
  (* Over whole periods the sine integrates away: E[N] = base · T. *)
  let t = Arrival.diurnal ~base:2.0 ~amplitude:1.5 ~period:100.0 in
  check_count "diurnal over 10 periods" 2000.0
    (Array.length (Arrival.times ~until:1000.0 ~rng:(Rng.create seed) t));
  (* Flash crowd: ∫rate = base·T + surge·(ramp/2 + decay·(1 − e^{−Δ/decay})). *)
  let t = Arrival.flash_crowd ~base:1.0 ~peak:5.0 ~at:100.0 ~ramp:20.0 ~decay:30.0 in
  let expected = 1000.0 +. (4.0 *. (10.0 +. (30.0 *. (1.0 -. exp (-880.0 /. 30.0))))) in
  check_count "flash crowd closed form" expected
    (Array.length (Arrival.times ~until:1000.0 ~rng:(Rng.create (seed + 1)) t))

(* MMPP counts are modulation-dominated: the state-occupancy fluctuation
   contributes far more variance than the Poisson draws, so the band is a
   relative ±15% over many holding cycles (and, with the seed fixed, a
   deterministic regression band). The two expectations together pin the
   holding distribution down: only the Exp-occupancy ratio 25/(75+25) puts
   the skewed process at half the symmetric one's count. *)
let check_mmpp name expected n =
  let lo = 0.85 *. expected and hi = 1.15 *. expected in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d arrivals within [%.0f, %.0f]" name n lo hi)
    true
    (let x = Float.of_int n in x >= lo && x <= hi)

let test_mmpp_counts () =
  (* Symmetric holding: half the time in each state → E[N] = mean rate · T. *)
  let t = Arrival.mmpp ~rates:[| 0.0; 4.0 |] ~mean_holding:[| 25.0; 25.0 |] in
  check_mmpp "mmpp 0/4 symmetric" 40000.0
    (Array.length (Arrival.times ~until:20000.0 ~rng:(Rng.create seed) t))

let test_mmpp_holding_modulates () =
  (* Stretching one state's holding shifts occupancy with it: holding 75/25
     at rates 0/4 → the emitting state holds 1/4 of the time. *)
  let t = Arrival.mmpp ~rates:[| 0.0; 4.0 |] ~mean_holding:[| 75.0; 25.0 |] in
  check_mmpp "mmpp skewed occupancy" 20000.0
    (Array.length (Arrival.times ~until:20000.0 ~rng:(Rng.create seed) t))

let test_replay_round_trip () =
  let t = Arrival.mmpp ~rates:[| 1.0; 5.0 |] ~mean_holding:[| 30.0; 10.0 |] in
  let recorded = Arrival.times ~until:300.0 ~rng:(Rng.create seed) t in
  Alcotest.(check bool) "recorded something" true (Array.length recorded > 0);
  (* Replay ignores its rng entirely: a different seed must reproduce the
     recorded instants bit-for-bit. *)
  let replayed =
    Arrival.times ~until:300.0 ~rng:(Rng.create 0xdead) (Arrival.replay recorded)
  in
  Alcotest.(check (array (float 0.0))) "replay reproduces the draw exactly" recorded replayed

let test_schedule_matches_times () =
  (* The lazy self-rescheduling generator and the materializer are the same
     process: schedule must fire exactly at the instants times returns. *)
  let t = Arrival.diurnal ~base:2.0 ~amplitude:1.0 ~period:60.0 in
  let expected = Arrival.times ~until:120.0 ~rng:(Rng.create seed) t in
  let engine = Engine.create () in
  let seen = ref [] in
  Arrival.schedule ~until:120.0 ~rng:(Rng.create seed) ~engine t ~f:(fun () ->
      seen := Engine.now engine :: !seen);
  Engine.run engine;
  Alcotest.(check (array (float 1e-9))) "schedule fires at the materialized instants"
    expected
    (Array.of_list (List.rev !seen))

let test_parse_spec () =
  let shape spec = Format.asprintf "%a" Arrival.pp (Arrival.parse_spec spec) in
  Alcotest.(check string) "poisson" "poisson(2.5/s)" (shape "poisson:2.5");
  Alcotest.(check string) "diurnal" "nhpp(rate_max 2.8/s)" (shape "diurnal:1.6,1.2,240");
  Alcotest.(check string) "flash" "nhpp(rate_max 6/s)" (shape "flash:1.8,6,120,20,60");
  Alcotest.(check string) "mmpp" "mmpp(2 states, rates 1.2,4)" (shape "mmpp:1.2/80,4/40");
  Alcotest.(check string) "replay" "replay(3 arrivals)" (shape "replay:0,1,2.5");
  let refused spec =
    match Arrival.parse_spec spec with exception Invalid_argument _ -> true | _ -> false
  in
  Alcotest.(check bool) "unknown kind refused" true (refused "bogus:1");
  Alcotest.(check bool) "bad arity refused" true (refused "poisson:1,2");
  Alcotest.(check bool) "bad number refused" true (refused "poisson:fast");
  Alcotest.(check bool) "missing colon refused" true (refused "poisson");
  Alcotest.(check bool) "constructor validation applies" true (refused "poisson:-1")

(* A NaN slips past every range check and an infinity passes them; each
   constructor must refuse both by naming the parameter, and the spec
   grammar reaches the same checks. *)
let test_non_finite_refused () =
  let refused_with message f =
    match f () with
    | exception Invalid_argument m -> String.equal m message
    | _ -> false
  in
  let check name message f =
    Alcotest.(check bool) name true (refused_with message f)
  in
  check "poisson nan" "Arrival.poisson: rate must be finite (got nan)" (fun () ->
      Arrival.poisson ~rate:nan);
  check "mmpp holding" "Arrival.mmpp: every holding time must be finite (got inf)" (fun () ->
      Arrival.mmpp ~rates:[| 1.0; 2.0 |] ~mean_holding:[| 1.0; infinity |]);
  check "replay -inf" "Arrival.replay: every arrival time must be finite (got -inf)" (fun () ->
      Arrival.replay [| neg_infinity |]);
  check "diurnal period" "Arrival.diurnal: period must be finite (got nan)" (fun () ->
      Arrival.diurnal ~base:1.0 ~amplitude:0.5 ~period:nan);
  check "flash decay" "Arrival.flash_crowd: decay must be finite (got inf)" (fun () ->
      Arrival.flash_crowd ~base:1.0 ~peak:2.0 ~at:1.0 ~ramp:1.0 ~decay:infinity);
  List.iter
    (fun (spec, message) ->
      check spec message (fun () -> Arrival.parse_spec spec))
    [
      ("poisson:inf", "Arrival.poisson: rate must be finite (got inf)");
      ("poisson:nan", "Arrival.poisson: rate must be finite (got nan)");
      ("diurnal:1,nan,240", "Arrival.diurnal: amplitude must be finite (got nan)");
      ("diurnal:nan,0,240", "Arrival.diurnal: base must be finite (got nan)");
      ("diurnal:1,0.5,inf", "Arrival.diurnal: period must be finite (got inf)");
      ("flash:1,2,nan,1,1", "Arrival.flash_crowd: at must be finite (got nan)");
      ("flash:1,inf,1,1,1", "Arrival.flash_crowd: peak must be finite (got inf)");
      ("mmpp:inf/1,1/1", "Arrival.mmpp: every rate must be finite (got inf)");
      ("mmpp:nan/1,1/1", "Arrival.mmpp: every rate must be finite (got nan)");
      ("mmpp:1/nan,1/1", "Arrival.mmpp: every holding time must be finite (got nan)");
      ("replay:1,nan", "Arrival.replay: every arrival time must be finite (got nan)");
    ]

(* ------------------------------------------------------------------ slo *)

let test_slo_window_arithmetic () =
  let meter = Slo.create (Slo.spec ~target_quantile:0.9 ~threshold:1.0 ~window:10.0) in
  (* 20 departures, 2 over threshold: exactly the (1−q) budget → attained. *)
  for i = 1 to 20 do
    Slo.observe meter ~sojourn:(if i <= 2 then 2.0 else 0.5)
  done;
  let w = Slo.close_window meter ~now:10.0 in
  Alcotest.(check int) "completions" 20 w.Slo.completions;
  Alcotest.(check int) "violations" 2 w.Slo.violations;
  Alcotest.(check bool) "boundary attained" true w.Slo.attained;
  (* One more violation than the budget → miss. *)
  for i = 1 to 20 do
    Slo.observe meter ~sojourn:(if i <= 3 then 2.0 else 0.5)
  done;
  let w = Slo.close_window meter ~now:20.0 in
  Alcotest.(check bool) "over budget misses" false w.Slo.attained;
  (* An empty window is vacuously attained. *)
  let w = Slo.close_window meter ~now:30.0 in
  Alcotest.(check bool) "empty window vacuous" true w.Slo.attained;
  Alcotest.(check int) "window index" 2 w.Slo.index;
  Alcotest.(check (float 1e-9)) "attainment 2/3" (2.0 /. 3.0) (Slo.attainment meter);
  Alcotest.(check int) "violation total" 5 (Slo.violations_total meter)

let test_slo_spec_validation () =
  let refused f = match f () with exception Invalid_argument _ -> true | _ -> false in
  Alcotest.(check bool) "quantile 0" true
    (refused (fun () -> Slo.spec ~target_quantile:0.0 ~threshold:1.0 ~window:1.0));
  Alcotest.(check bool) "quantile 1" true
    (refused (fun () -> Slo.spec ~target_quantile:1.0 ~threshold:1.0 ~window:1.0));
  Alcotest.(check bool) "negative threshold" true
    (refused (fun () -> Slo.spec ~target_quantile:0.5 ~threshold:(-1.0) ~window:1.0));
  Alcotest.(check bool) "zero window" true
    (refused (fun () -> Slo.spec ~target_quantile:0.5 ~threshold:1.0 ~window:0.0))

(* ------------------------------------------------- trace sojourn series *)

let test_trace_sojourn_series () =
  (* Batch shape: entry is the item's first service start, and the series
     carries every item (the old interface exposed only the mean). *)
  let trace = Trace.create () in
  Trace.record_service trace { Trace.item = 0; stage = 0; node = 0; start = 1.0; finish = 2.0 };
  Trace.record_service trace { Trace.item = 1; stage = 0; node = 0; start = 2.0; finish = 3.0 };
  Trace.record_service trace { Trace.item = 0; stage = 1; node = 1; start = 2.5; finish = 4.0 };
  Trace.record_completion trace ~item:1 ~time:6.5;
  Trace.record_completion trace ~item:0 ~time:5.0;
  Alcotest.(check (array (pair int (float 1e-9))))
    "per-item series, completion order"
    [| (1, 4.5); (0, 4.0) |]
    (Trace.sojourns trace);
  Alcotest.(check (float 1e-9)) "mean matches the series" 4.25 (Trace.mean_sojourn trace)

let test_trace_sojourn_stamp_wins () =
  (* Serving shape: an open-arrival stamp (Sojourn event) predates the first
     service start and must win as the entry instant. *)
  let trace = Trace.create () in
  let bus = Bus.create () in
  Trace.subscribe trace bus;
  Bus.emit bus (Event.Sojourn { item = 7; arrival = 0.5 });
  Trace.record_service trace { Trace.item = 7; stage = 0; node = 0; start = 2.0; finish = 3.0 };
  Trace.record_completion trace ~item:7 ~time:4.0;
  Alcotest.(check (array (pair int (float 1e-9))))
    "arrival stamp wins over first service start"
    [| (7, 3.5) |]
    (Trace.sojourns trace)

(* ---------------------------------------------------------------- serve *)

let small_scenario () =
  Scenario.make ~name:"serve-test"
    ~make_topo:(fun engine ->
      Aspipe_grid.Topology.uniform engine ~n:3 ~speed:10.0 ~latency:0.01 ~bandwidth:1e7 ())
    ~stages:
      (Array.init 3 (fun i ->
           Stage.make
             ~name:(Printf.sprintf "s%d" i)
             ~output_bytes:1e4 ~state_bytes:1e5
             ~work:(Aspipe_util.Variate.Constant 1.0)
             ()))
    ~input:(Stream_spec.make ~item_bytes:1e4 ~items:1 ())
    ~horizon:120.0 ()

let serve_once () =
  Serve.run
    ~autoscaler:(Autoscaler.latency_gradient ())
    ~arrival:(Arrival.poisson ~rate:1.5)
    ~slo:(Slo.spec ~target_quantile:0.95 ~threshold:6.0 ~window:30.0)
    ~provision_rate:1.5
    ~scenario:(small_scenario ())
    ~seed:11 ()

let test_serve_deterministic () =
  let a = serve_once () and b = serve_once () in
  Alcotest.(check bool) "serves something" true (a.Serve.completions > 0);
  Alcotest.(check int) "arrivals repeat" a.Serve.arrivals b.Serve.arrivals;
  Alcotest.(check (float 0.0)) "p99 bit-identical" a.Serve.p99 b.Serve.p99;
  Alcotest.(check (float 0.0)) "node-seconds bit-identical" a.Serve.node_seconds
    b.Serve.node_seconds;
  Alcotest.(check string) "whole report renders identically"
    (Format.asprintf "%a" Serve.pp_report a)
    (Format.asprintf "%a" Serve.pp_report b)

let test_serve_accounts_every_arrival () =
  let r = serve_once () in
  Alcotest.(check int) "drained: completions = arrivals - lost" r.Serve.arrivals
    (r.Serve.completions + r.Serve.items_lost);
  Alcotest.(check bool) "slo windows sealed" true (List.length r.Serve.windows > 0);
  Alcotest.(check bool) "node-seconds accrued" true (r.Serve.node_seconds > 0.0)

(* The report's trace is written directly; one subscribed through
   [~instrument] rebuilds it from the bus. Completions, arrival-stamped
   sojourns and committed adaptations must all agree. *)
let test_serve_trace_matches_subscribed () =
  let subscribed = Trace.create () in
  let r =
    Serve.run ~instrument:(Trace.subscribe subscribed)
      ~autoscaler:(Autoscaler.latency_gradient ())
      ~arrival:(Arrival.diurnal ~base:1.6 ~amplitude:1.2 ~period:240.0)
      ~slo:(Slo.spec ~target_quantile:0.95 ~threshold:6.0 ~window:30.0)
      ~provision_rate:1.6 ~scenario:(small_scenario ()) ~seed:11 ()
  in
  Alcotest.(check bool) "adapts" true (r.Serve.adaptation_count >= 1);
  match Trace_diff.differs r.Serve.trace subscribed with
  | Some what -> Alcotest.failf "%s differ" what
  | None -> ()

let test_e21_jobs_determinism () =
  (* The acceptance criterion: E21 byte-identical at --jobs 1 and --jobs 4
     (oversubscribed so real pool workers run even on one core). *)
  let seq = Campaign.run ~jobs:1 ~only:[ "E21" ] ~quick:true () in
  let par = Campaign.run ~jobs:4 ~oversubscribe:true ~only:[ "E21" ] ~quick:true () in
  List.iter2
    (fun a b ->
      Alcotest.(check string) "E21 byte-identical under jobs 1 vs jobs 4" a.Campaign.output
        b.Campaign.output)
    seq.Campaign.outcomes par.Campaign.outcomes

let () =
  Alcotest.run "serve"
    [
      ( "arrival",
        [
          Alcotest.test_case "poisson count" `Quick test_poisson_count;
          Alcotest.test_case "nhpp closed-form counts" `Quick test_nhpp_counts;
          Alcotest.test_case "mmpp symmetric count" `Quick test_mmpp_counts;
          Alcotest.test_case "mmpp holding modulates" `Quick test_mmpp_holding_modulates;
          Alcotest.test_case "replay round-trip" `Quick test_replay_round_trip;
          Alcotest.test_case "schedule = times" `Quick test_schedule_matches_times;
          Alcotest.test_case "CLI spec grammar" `Quick test_parse_spec;
          Alcotest.test_case "non-finite numbers refused" `Quick test_non_finite_refused;
        ] );
      ( "slo",
        [
          Alcotest.test_case "window arithmetic" `Quick test_slo_window_arithmetic;
          Alcotest.test_case "spec validation" `Quick test_slo_spec_validation;
        ] );
      ( "trace",
        [
          Alcotest.test_case "sojourn series" `Quick test_trace_sojourn_series;
          Alcotest.test_case "arrival stamp wins" `Quick test_trace_sojourn_stamp_wins;
        ] );
      ( "driver",
        [
          Alcotest.test_case "deterministic report" `Quick test_serve_deterministic;
          Alcotest.test_case "accounts every arrival" `Quick test_serve_accounts_every_arrival;
          Alcotest.test_case "E21 golden jobs 1 vs 4" `Slow test_e21_jobs_determinism;
          Alcotest.test_case "trace matches subscribed" `Quick
            test_serve_trace_matches_subscribed;
        ] );
    ]
