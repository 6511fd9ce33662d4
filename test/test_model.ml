(* Tests for the performance-model library: mappings, cost specs, the
   analytic bottleneck evaluator, the CTMC evaluator (including regression
   against published PEPA-workbench figures) and mapping search. *)

module Engine = Aspipe_des.Engine
module Topology = Aspipe_grid.Topology
module Stage = Aspipe_skel.Stage
module Stream_spec = Aspipe_skel.Stream_spec
module Mapping = Aspipe_model.Mapping
module Costspec = Aspipe_model.Costspec
module Analytic = Aspipe_model.Analytic
module Ctmc = Aspipe_model.Ctmc
module Search = Aspipe_model.Search
module Predictor = Aspipe_model.Predictor
module Rng = Aspipe_util.Rng
module Variate = Aspipe_util.Variate

let check_float = Alcotest.(check (float 1e-9))
let check_close ?(eps = 1e-6) msg a b = Alcotest.(check (float eps)) msg a b

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* -------------------------------------------------------------- Mapping *)

let test_mapping_of_array () =
  let m = Mapping.of_array ~processors:3 [| 0; 2; 1 |] in
  Alcotest.(check int) "stages" 3 (Mapping.stages m);
  Alcotest.(check int) "processor_of" 2 (Mapping.processor_of m 1);
  Alcotest.(check string) "to_string" "(0,2,1)" (Mapping.to_string m);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Mapping.of_array: processor out of range") (fun () ->
      ignore (Mapping.of_array ~processors:2 [| 0; 2 |]));
  Alcotest.check_raises "empty" (Invalid_argument "Mapping.of_array: empty") (fun () ->
      ignore (Mapping.of_array ~processors:2 [||]))

let test_mapping_round_robin () =
  Alcotest.(check (array int)) "round robin" [| 0; 1; 2; 0; 1 |]
    (Mapping.to_array (Mapping.round_robin ~stages:5 ~processors:3))

let test_mapping_blocks () =
  Alcotest.(check (array int)) "even blocks" [| 0; 0; 1; 1 |]
    (Mapping.to_array (Mapping.blocks ~stages:4 ~processors:2));
  Alcotest.(check (array int)) "uneven blocks front-load the remainder" [| 0; 0; 1; 1; 2; 2; 3 |]
    (Mapping.to_array (Mapping.blocks ~stages:7 ~processors:4));
  Alcotest.(check (array int)) "more processors than stages" [| 0; 1 |]
    (Mapping.to_array (Mapping.blocks ~stages:2 ~processors:5))

let test_mapping_enumerate () =
  Alcotest.(check int) "Np^Ns candidates" 27
    (List.length (Mapping.enumerate ~stages:3 ~processors:3 ()));
  let pinned = Mapping.enumerate ~fix_first_on:1 ~stages:3 ~processors:3 () in
  Alcotest.(check int) "pinned space" 9 (List.length pinned);
  List.iter
    (fun m ->
      if Mapping.processor_of m 0 <> 1 then Alcotest.fail "pin violated")
    pinned;
  (* All candidates distinct. *)
  let as_lists = List.map (fun m -> Array.to_list (Mapping.to_array m)) pinned in
  Alcotest.(check int) "no duplicates" 9 (List.length (List.sort_uniq compare as_lists))

let test_mapping_neighbours () =
  let m = Mapping.of_array ~processors:3 [| 0; 1 |] in
  let ns = Mapping.neighbours m ~processors:3 in
  Alcotest.(check int) "Ns x (Np-1) neighbours" 4 (List.length ns);
  List.iter
    (fun n ->
      let diff = ref 0 in
      Array.iteri
        (fun i p -> if p <> Mapping.processor_of m i then incr diff)
        (Mapping.to_array n);
      Alcotest.(check int) "exactly one stage moves" 1 !diff)
    ns

let test_mapping_colocation () =
  let m = Mapping.of_array ~processors:3 [| 0; 0; 2 |] in
  Alcotest.(check int) "sharing of stage 0" 2 (Mapping.stages_sharing m 0);
  Alcotest.(check int) "sharing of stage 2" 1 (Mapping.stages_sharing m 2)

(* ------------------------------------------------------------- Costspec *)

let build_spec ?(n = 3) ?(latency = 0.01) () =
  let engine = Engine.create () in
  let topo = Topology.uniform engine ~n ~speed:10.0 ~latency ~bandwidth:1e6 () in
  let stages = Stage_gen.balanced ~n:2 ~work:2.0 ~output_bytes:1e3 () in
  let input = Stream_spec.make ~items:10 ~item_bytes:1e3 () in
  Costspec.of_topology ~topo ~stages ~input ()

let test_costspec_dimensions () =
  let spec = build_spec () in
  Alcotest.(check int) "processors" 3 (Costspec.processors spec);
  Alcotest.(check int) "stages" 2 (Costspec.stages spec);
  Costspec.validate spec

let test_costspec_service_rate_sharing () =
  let spec = build_spec () in
  let spread = Mapping.of_array ~processors:3 [| 0; 1 |] in
  let packed = Mapping.of_array ~processors:3 [| 0; 0 |] in
  (* speed 10, work 2 -> 5 items/s alone; halved when sharing. *)
  check_float "alone" 5.0 (Costspec.service_rate spec spread 0);
  check_float "shared" 2.5 (Costspec.service_rate spec packed 0)

let test_costspec_move_rates () =
  let spec = build_spec ~latency:0.1 () in
  let spread = Mapping.of_array ~processors:3 [| 0; 1 |] in
  let packed = Mapping.of_array ~processors:3 [| 0; 0 |] in
  (* Remote interior move: 0.1 + 1e3/1e6 = 0.101 s. *)
  check_close ~eps:1e-9 "remote move rate" (1.0 /. 0.101) (Costspec.move_rate spec spread 1);
  Alcotest.(check bool) "local move much faster" true
    (Costspec.move_rate spec packed 1 > 1000.0);
  (* Boundary moves use the user link. *)
  check_close ~eps:1e-9 "input move" (1.0 /. 0.101) (Costspec.move_rate spec spread 0);
  check_close ~eps:1e-9 "output move" (1.0 /. 0.101) (Costspec.move_rate spec spread 2);
  Alcotest.check_raises "index out of range"
    (Invalid_argument "Costspec.move_rate: index out of range") (fun () ->
      ignore (Costspec.move_rate spec spread 3))

let test_costspec_with_stage_work () =
  let spec = build_spec () in
  let spec' = Costspec.with_stage_work spec [| 1.0; 4.0 |] in
  let m = Mapping.of_array ~processors:3 [| 0; 1 |] in
  check_float "updated work vector" 2.5 (Costspec.service_rate spec' m 1);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Costspec.with_stage_work: length mismatch") (fun () ->
      ignore (Costspec.with_stage_work spec [| 1.0 |]))


let test_costspec_link_quality_override () =
  let engine = Engine.create () in
  let topo = Topology.uniform engine ~n:2 ~speed:10.0 ~latency:0.1 ~bandwidth:1e6 () in
  let stages = Stage_gen.balanced ~n:2 ~work:1.0 ~output_bytes:1e3 () in
  let input = Stream_spec.make ~items:5 ~item_bytes:1e3 () in
  let nominal = Costspec.of_topology ~topo ~stages ~input () in
  let degraded =
    Costspec.of_topology
      ~link_quality:(fun ~src:_ ~dst:_ -> 0.5)
      ~user_link_quality:(fun _ -> 0.5)
      ~topo ~stages ~input ()
  in
  check_close ~eps:1e-9 "latency doubles at quality 0.5"
    (2.0 *. nominal.Costspec.latency.(0).(1))
    degraded.Costspec.latency.(0).(1);
  check_close ~eps:1e-9 "bandwidth halves"
    (nominal.Costspec.bandwidth.(0).(1) /. 2.0)
    degraded.Costspec.bandwidth.(0).(1);
  check_close ~eps:1e-9 "user latency doubles"
    (2.0 *. nominal.Costspec.user_latency.(1))
    degraded.Costspec.user_latency.(1);
  (* Ground-truth default picks up live link quality. *)
  Aspipe_grid.Link.set_quality (Topology.link topo ~src:0 ~dst:1) 0.25;
  let live = Costspec.of_topology ~topo ~stages ~input () in
  check_close ~eps:1e-9 "default reads live quality"
    (4.0 *. nominal.Costspec.latency.(0).(1))
    live.Costspec.latency.(0).(1)

(* ------------------------------------------------------------- Analytic *)

let synthetic_spec ~stage_work ~node_rates ?(latency = 0.0001) ?(bandwidth = 1e9) () =
  let np = Array.length node_rates in
  {
    Costspec.stage_work;
    node_rates;
    item_bytes = 1.0;
    output_bytes = Array.make (Array.length stage_work) 1.0;
    latency = Array.init np (fun _ -> Array.make np latency);
    bandwidth = Array.init np (fun _ -> Array.make np bandwidth);
    user_latency = Array.make np latency;
    user_bandwidth = Array.make np bandwidth;
  }

let test_analytic_processor_bottleneck () =
  let spec = synthetic_spec ~stage_work:[| 1.0; 1.0 |] ~node_rates:[| 10.0; 2.0 |] () in
  let m = Mapping.of_array ~processors:2 [| 0; 1 |] in
  let station, rate = Analytic.bottleneck spec m in
  check_close ~eps:1e-3 "slow node binds" 2.0 rate;
  (* The binding station involves the slow node: either its processor
     station or the cycle of the stage mapped to it. *)
  (match station with
  | Analytic.Processor 1 | Analytic.Stage_cycle 1 -> ()
  | Analytic.Processor _ | Analytic.Stage_cycle _ ->
      Alcotest.fail "expected the slow node to bind");
  check_close ~eps:1e-3 "throughput = bottleneck rate" 2.0 (Analytic.throughput spec m)

let test_analytic_cycle_bottleneck () =
  (* Fast nodes, dreadful link: the stage cycle binds. *)
  let spec =
    synthetic_spec ~stage_work:[| 1.0; 1.0 |] ~node_rates:[| 100.0; 100.0 |] ~latency:0.5 ()
  in
  let m = Mapping.of_array ~processors:2 [| 0; 1 |] in
  let station, rate = Analytic.bottleneck spec m in
  (match station with
  | Analytic.Stage_cycle _ -> ()
  | Analytic.Processor _ -> Alcotest.fail "expected a stage cycle as bottleneck");
  check_close ~eps:0.01 "cycle ~ service + move" (1.0 /. (0.01 +. 0.5)) rate

let test_analytic_colocation_halves () =
  let spec = synthetic_spec ~stage_work:[| 1.0; 1.0 |] ~node_rates:[| 10.0; 10.0 |] () in
  let spread = Mapping.of_array ~processors:2 [| 0; 1 |] in
  let packed = Mapping.of_array ~processors:2 [| 0; 0 |] in
  let ratio = Analytic.throughput spec spread /. Analytic.throughput spec packed in
  check_close ~eps:0.01 "spread is twice as fast" 2.0 ratio

let test_analytic_monotone_in_speed =
  qtest ~count:50 "throughput never decreases when a node speeds up"
    QCheck2.Gen.(triple (int_range 0 2) (float_range 1.0 20.0) (int_range 0 999))
    (fun (node, extra, seed) ->
      let rng = Rng.create seed in
      let rates = Array.init 3 (fun _ -> 1.0 +. (9.0 *. Rng.float rng)) in
      let spec = synthetic_spec ~stage_work:[| 1.0; 2.0; 1.0 |] ~node_rates:rates () in
      let faster = Array.copy rates in
      faster.(node) <- faster.(node) +. extra;
      let spec' = synthetic_spec ~stage_work:[| 1.0; 2.0; 1.0 |] ~node_rates:faster () in
      let m = Mapping.of_array ~processors:3 [| 0; 1; 2 |] in
      Analytic.throughput spec' m >= Analytic.throughput spec m -. 1e-9)

(* The decision-skipping bound is admissible in float arithmetic: no
   mapping of the space, pinned or not, scores above it. *)
let test_upper_bound_admissible =
  qtest ~count:500 "no mapping scores above Analytic.upper_bound" Spec_gen.bound_spec
    (fun spec ->
      let bound = Analytic.upper_bound spec in
      List.for_all
        (fun m -> not (Analytic.throughput spec m > bound))
        (Mapping.enumerate ~stages:(Costspec.stages spec)
           ~processors:(Costspec.processors spec) ()))

(* ----------------------------------------------------------------- Ctmc *)

let test_ctmc_state_count () =
  let model = Ctmc.build ~service_rates:[| 1.0; 1.0; 1.0 |] ~move_rates:(Array.make 4 10.0) in
  Alcotest.(check int) "3^3 states" 27 (Array.length (Ctmc.steady_state model))

let test_ctmc_build_validation () =
  Alcotest.check_raises "wrong move vector"
    (Invalid_argument "Ctmc.build: move_rates must have Ns+1 entries") (fun () ->
      ignore (Ctmc.build ~service_rates:[| 1.0 |] ~move_rates:[| 1.0 |]));
  Alcotest.check_raises "non-positive rate" (Invalid_argument "Ctmc: rates must be positive")
    (fun () -> ignore (Ctmc.build ~service_rates:[| 0.0 |] ~move_rates:[| 1.0; 1.0 |]));
  Alcotest.check_raises "empty" (Invalid_argument "Ctmc.build: no stages") (fun () ->
      ignore (Ctmc.build ~service_rates:[||] ~move_rates:[| 1.0 |]))

let test_ctmc_steady_state_properties () =
  let service_rates = [| 2.0; 5.0; 3.0 |] and move_rates = [| 100.0; 7.0; 9.0; 100.0 |] in
  let pi = Ctmc.steady_state (Ctmc.build ~service_rates ~move_rates) in
  let total = Array.fold_left ( +. ) 0.0 pi in
  check_close ~eps:1e-9 "distribution sums to 1" 1.0 total;
  Array.iter (fun p -> if p < -1e-12 then Alcotest.fail "negative probability") pi;
  Alcotest.(check bool) "balance residual tiny" true
    (Ctmc_ref.residual (Ctmc_ref.build ~service_rates ~move_rates) pi < 1e-6)

(* Regression against the published PEPA-workbench results for this model
   (Benoit, Cole, Gilmore, Hillston; ICCS 2004, Section 4.2): 3 stages,
   li-i = 0.0001 s, no input/output transfer cost, equitable sharing. *)
let pepa_throughput ~times ~mapping =
  (* times.(p) = seconds per stage on processor p when alone. *)
  let processors = Array.length times in
  let m = Mapping.of_array ~processors mapping in
  let service_rates =
    Array.init 3 (fun i ->
        let p = mapping.(i) in
        1.0 /. times.(p) /. Float.of_int (Mapping.stages_sharing m i))
  in
  let fast = 1.0 /. 0.0001 in
  let move_rates = [| fast; fast; fast; fast |] in
  Ctmc.throughput (Ctmc.build ~service_rates ~move_rates)

let test_ctmc_reproduces_pepa_row1 () =
  (* (1,2,3) with t = 0.1 everywhere: published throughput 5.63467. *)
  check_close ~eps:0.01 "one stage per processor" 5.63467
    (pepa_throughput ~times:[| 0.1; 0.1; 0.1 |] ~mapping:[| 0; 1; 2 |])

let test_ctmc_reproduces_pepa_row2 () =
  (* Same with t = 0.2: published 2.81892 (exactly half). *)
  check_close ~eps:0.01 "busy processors halve throughput" 2.81892
    (pepa_throughput ~times:[| 0.2; 0.2; 0.2 |] ~mapping:[| 0; 1; 2 |])

let test_ctmc_reproduces_pepa_all_on_one () =
  (* (1,1,1) with t = 0.1: published 1.87963. *)
  check_close ~eps:0.01 "all stages on one processor" 1.87963
    (pepa_throughput ~times:[| 0.1; 0.1; 0.1 |] ~mapping:[| 0; 0; 0 |])

let test_ctmc_matches_analytic_on_fast_network () =
  (* With negligible move times and a dominant slow stage, blocking barely
     matters: CTMC must approach the bottleneck rate. *)
  let model =
    Ctmc.build ~service_rates:[| 100.0; 1.0; 100.0 |] ~move_rates:(Array.make 4 1e6)
  in
  check_close ~eps:0.02 "dominant bottleneck" 1.0 (Ctmc.throughput model)

let test_ctmc_of_costspec_consistency () =
  let spec = synthetic_spec ~stage_work:[| 1.0; 1.0 |] ~node_rates:[| 10.0; 10.0 |] () in
  let m = Mapping.of_array ~processors:2 [| 0; 1 |] in
  let x = Ctmc.throughput (Ctmc.of_costspec spec m) in
  Alcotest.(check bool) "between half and full bottleneck" true
    (x > 0.5 *. Analytic.throughput spec m && x <= Analytic.throughput spec m +. 1e-9)


(* ---------------------------------- the farm model: one-stage Repl_model *)

module Repl_model = Aspipe_model.Repl_model
module Repl_sim = Aspipe_skel.Repl_sim

let farm_spec ~work rates = synthetic_spec ~stage_work:[| work |] ~node_rates:rates ()

let round_robin spec workers =
  Repl_model.throughput ~dispatch:Repl_sim.Round_robin spec ~replicas:[| workers |]

let test_farm_model_rates () =
  let spec = farm_spec ~work:2.0 [| 10.0; 4.0 |] in
  check_float "worker rate" 5.0 (Repl_model.throughput spec ~replicas:[| [ 0 ] |]);
  check_float "rr binds at the slowest" 4.0 (round_robin spec [ 0; 1 ]);
  check_float "proportional sums" 7.0 (Repl_model.throughput spec ~replicas:[| [ 0; 1 ] |]);
  (* Equal shares: |R| x the slowest member's rate, float for float. *)
  Alcotest.(check int64) "n x min rate, bit for bit"
    (Int64.bits_of_float (3.0 *. (6.0 /. 0.7)))
    (Int64.bits_of_float (round_robin (farm_spec ~work:0.7 [| 14.0; 12.0; 6.0 |]) [ 0; 1; 2 ]));
  Alcotest.check_raises "empty set" (Invalid_argument "Repl_model: empty replica set") (fun () ->
      ignore (round_robin spec []));
  Alcotest.check_raises "best set needs one stage"
    (Invalid_argument "Repl_model.best_round_robin: one stage required") (fun () ->
      let pipeline = synthetic_spec ~stage_work:[| 1.0; 1.0 |] ~node_rates:[| 10.0 |] () in
      ignore (Repl_model.best_round_robin pipeline))

let test_farm_model_best_set () =
  (* rates 14,12,10,10,8,6: prefixes give 14,24,30,40,40,36 -> best is the
     4-element prefix (ties resolve to the first maximum found). *)
  let spec = farm_spec ~work:1.0 [| 14.0; 12.0; 10.0; 10.0; 8.0; 6.0 |] in
  let set, score = Repl_model.best_round_robin spec in
  Alcotest.(check (list int)) "drops the slow tail" [ 0; 1; 2; 3 ] set;
  check_float "score" 40.0 score

let test_farm_model_best_set_exhaustive =
  qtest ~count:60 "best prefix beats every subset"
    QCheck2.Gen.(array_size (int_range 1 8) (float_range 1.0 20.0))
    (fun rates ->
      let spec = farm_spec ~work:1.0 rates in
      let candidates = List.init (Array.length rates) Fun.id in
      let _, best = Repl_model.best_round_robin spec in
      (* Enumerate all non-empty subsets and verify none beats the prefix. *)
      let n = List.length candidates in
      let rec subsets mask =
        if mask >= 1 lsl n then true
        else begin
          let subset = List.filter (fun i -> mask land (1 lsl i) <> 0) candidates in
          round_robin spec subset <= best +. 1e-9 && subsets (mask + 1)
        end
      in
      subsets 1)

(* ----------------------------------------------------------- Repl_model *)

let test_repl_model_capacity () =
  let spec = synthetic_spec ~stage_work:[| 1.0; 4.0 |] ~node_rates:[| 10.0; 10.0; 10.0 |] () in
  let replicas = [| [ 0 ]; [ 1; 2 ] |] in
  check_close ~eps:1e-9 "plain stage capacity" 10.0 (Repl_model.stage_capacity spec ~replicas 0);
  check_close ~eps:1e-9 "replicated hot stage sums shares" 5.0
    (Repl_model.stage_capacity spec ~replicas 1);
  check_close ~eps:1e-9 "throughput is the min" 5.0 (Repl_model.throughput spec ~replicas)

let test_repl_model_shared_node_splits () =
  let spec = synthetic_spec ~stage_work:[| 1.0; 1.0 |] ~node_rates:[| 10.0; 10.0 |] () in
  (* Node 0 carries both stages: each gets half its rate. *)
  let replicas = [| [ 0 ]; [ 0; 1 ] |] in
  Alcotest.(check (array int)) "assignment counts" [| 2; 1 |]
    (Repl_model.node_share ~replicas ~processors:2);
  check_close ~eps:1e-9 "stage 0 runs on a half share" 5.0
    (Repl_model.stage_capacity spec ~replicas 0);
  check_close ~eps:1e-9 "stage 1 gets half of node0 plus all of node1" 15.0
    (Repl_model.stage_capacity spec ~replicas 1)

let test_repl_model_best_replication () =
  let spec =
    synthetic_spec ~stage_work:[| 1.0; 1.0; 4.0; 1.0 |]
      ~node_rates:(Array.make 7 10.0) ()
  in
  let replicas, predicted = Repl_model.best_replication spec ~budget:7 ~processors:7 in
  Alcotest.(check int) "hot stage got the extra replicas" 4 (List.length replicas.(2));
  check_close ~eps:1e-9 "bottleneck resolved" 10.0 predicted;
  Alcotest.check_raises "budget too small"
    (Invalid_argument "Repl_model.best_replication: budget below one replica per stage")
    (fun () -> ignore (Repl_model.best_replication spec ~budget:3 ~processors:7))

let test_repl_model_validation () =
  let spec = synthetic_spec ~stage_work:[| 1.0 |] ~node_rates:[| 10.0 |] () in
  Alcotest.check_raises "arity" (Invalid_argument "Repl_model: one replica set per stage required")
    (fun () -> ignore (Repl_model.throughput spec ~replicas:[||]));
  Alcotest.check_raises "empty set" (Invalid_argument "Repl_model: empty replica set") (fun () ->
      ignore (Repl_model.throughput spec ~replicas:[| [] |]))


let test_repl_model_monotone_in_replicas =
  qtest ~count:50 "adding a replica to a fresh node never lowers throughput"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let stages = 2 + Rng_ref.below rng 3 in
      let processors = stages + 2 in
      let spec =
        synthetic_spec
          ~stage_work:(Array.init stages (fun _ -> Rng.range rng 0.5 3.0))
          ~node_rates:(Array.init processors (fun _ -> Rng.range rng 5.0 15.0))
          ()
      in
      (* One replica per stage on its own node; then give a random stage the
         first spare node. *)
      let base = Array.init stages (fun i -> [ i ]) in
      let grown = Array.copy base in
      let lucky = Rng_ref.below rng stages in
      grown.(lucky) <- [ lucky; stages ];
      Repl_model.throughput spec ~replicas:grown
      >= Repl_model.throughput spec ~replicas:base -. 1e-9)

(* ---------------------------------------------------------- Pepa_export *)

module Pepa_export = Aspipe_model.Pepa_export

let string_contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
  nn = 0 || scan 0

let test_pepa_export_structure () =
  let spec = synthetic_spec ~stage_work:[| 1.0; 1.0; 1.0 |] ~node_rates:[| 10.0; 10.0 |] () in
  let m = Mapping.of_array ~processors:2 [| 0; 0; 1 |] in
  let source = Pepa_export.pipeline spec m in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" needle) true
        (string_contains source needle))
    [
      "Stage1 = (move1, infty).(process1, infty).(move2, infty).Stage1;";
      "Stage3";
      "Processor1 = (process1, mu1).Processor1 + (process2, mu2).Processor1;";
      "Processor2 = (process3, mu3).Processor2;";
      "Network =";
      "Pipeline = Stage1 <move2> (Stage2 <move3> (Stage3));";
      "Mapping = Network <move1, move2, move3, move4> Pipeline";
    ]

let test_pepa_export_rates_match_ctmc_inputs () =
  let spec = synthetic_spec ~stage_work:[| 1.0; 2.0 |] ~node_rates:[| 10.0; 5.0 |] () in
  let m = Mapping.of_array ~processors:2 [| 0; 1 |] in
  let rates = Pepa_export.rate_table spec m in
  Alcotest.(check int) "Ns mus + Ns+1 lambdas" 5 (List.length rates);
  check_close ~eps:1e-9 "mu1 = service rate of stage 0" (Costspec.service_rate spec m 0)
    (List.assoc "mu1" rates);
  check_close ~eps:1e-9 "lambda2 = interior move rate" (Costspec.move_rate spec m 1)
    (List.assoc "lambda2" rates)

(* --------------------------------------------------------- Ctmc solvers *)

let test_ctmc_solvers_agree () =
  let model =
    Ctmc.build ~service_rates:[| 2.0; 5.0; 3.0 |] ~move_rates:[| 50.0; 7.0; 9.0; 50.0 |]
  in
  let gs = Ctmc.throughput ~solver:Ctmc.Gauss_seidel model in
  let power = Ctmc.throughput ~solver:Ctmc.Power model in
  check_close ~eps:1e-6 "both solvers find the same throughput" gs power

let test_ctmc_gauss_seidel_handles_stiff () =
  (* Rates spanning 6 orders of magnitude: power iteration at default budget
     cannot converge, Gauss-Seidel must. *)
  let model = Ctmc.build ~service_rates:(Array.make 3 1.0) ~move_rates:(Array.make 4 1e6) in
  let x = Ctmc.throughput ~solver:Ctmc.Gauss_seidel model in
  Alcotest.(check bool) "plausible throughput" true (x > 0.3 && x <= 1.0);
  Alcotest.check_raises "power diverges in the iteration budget"
    (Failure "Ctmc.steady_state: no convergence") (fun () ->
      ignore (Ctmc.throughput ~solver:Ctmc.Power ~max_iter:1000 model))


let test_cross_model_bounds =
  qtest ~count:40 "ctmc never exceeds the analytic saturation bound"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let stages = 2 + Rng_ref.below rng 3 in
      let processors = 2 + Rng_ref.below rng 3 in
      let spec =
        synthetic_spec
          ~stage_work:(Array.init stages (fun _ -> Rng.range rng 0.5 2.0))
          ~node_rates:(Array.init processors (fun _ -> Rng.range rng 5.0 15.0))
          ~latency:(Rng.range rng 1e-3 0.05)
          ()
      in
      let m = Mapping.of_array ~processors (Array.init stages (fun _ -> Rng_ref.below rng processors)) in
      let analytic = Analytic.throughput spec m in
      let ctmc = Ctmc.throughput (Ctmc.of_costspec spec m) in
      ctmc <= analytic +. (1e-6 *. analytic) && ctmc > 0.0)

(* --------------------------------------------------------------- Search *)

let table_evaluator ~processors table m =
  (* Deterministic scoring read from a table keyed by the mapping. *)
  ignore processors;
  let key = Array.to_list (Mapping.to_array m) in
  match List.assoc_opt key table with Some v -> v | None -> 0.0

let test_search_exhaustive_finds_max () =
  let table = [ ([ 0; 0 ], 1.0); ([ 0; 1 ], 3.0); ([ 1; 0 ], 2.0); ([ 1; 1 ], 0.5) ] in
  let result = Search.exhaustive ~stages:2 ~processors:2 (table_evaluator ~processors:2 table) in
  Alcotest.(check (array int)) "argmax" [| 0; 1 |] (Mapping.to_array result.Search.mapping);
  check_float "score" 3.0 result.Search.score;
  Alcotest.(check int) "evaluated everything" 4 result.Search.evaluated

let test_search_exhaustive_vs_random_evaluator =
  qtest ~count:30 "exhaustive = brute force max"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let score m =
        (* Hash-based deterministic pseudo-score. *)
        let h = Array.fold_left (fun acc p -> (acc * 31) + p + 7) 3 (Mapping.to_array m) in
        Float.of_int (h mod 1000) +. Rng.float (Rng.create h)
      in
      ignore rng;
      let result = Search.exhaustive ~stages:3 ~processors:3 score in
      let best =
        List.fold_left
          (fun acc m -> Float.max acc (score m))
          neg_infinity
          (Mapping.enumerate ~stages:3 ~processors:3 ())
      in
      Float.abs (result.Search.score -. best) < 1e-9)

let test_search_hill_climb_local_optimum () =
  let spec = synthetic_spec ~stage_work:[| 1.0; 1.0; 1.0 |] ~node_rates:[| 10.0; 10.0; 10.0 |] () in
  let evaluator = Analytic.throughput spec in
  let start = Mapping.of_array ~processors:3 [| 0; 0; 0 |] in
  let result = Search.hill_climb ~start ~processors:3 evaluator in
  (* No neighbour may beat the returned mapping. *)
  List.iter
    (fun n ->
      if evaluator n > result.Search.score +. 1e-9 then Alcotest.fail "not a local optimum")
    (Mapping.neighbours result.Search.mapping ~processors:3);
  (* On this convex-ish landscape it should find the global optimum. *)
  let best = Search.exhaustive ~stages:3 ~processors:3 evaluator in
  check_close ~eps:1e-9 "hill climb matches exhaustive here" best.Search.score result.Search.score

let test_search_greedy_reasonable () =
  let spec =
    synthetic_spec ~stage_work:[| 1.0; 1.0; 1.0; 1.0 |] ~node_rates:[| 10.0; 10.0; 10.0; 10.0 |] ()
  in
  let evaluator = Analytic.throughput spec in
  let greedy = Search.greedy ~stages:4 ~processors:4 evaluator in
  let best = Search.exhaustive ~stages:4 ~processors:4 evaluator in
  Alcotest.(check bool) "greedy within 60% of optimal" true
    (greedy.Search.score >= 0.4 *. best.Search.score)

let test_search_auto_switches () =
  let spec = synthetic_spec ~stage_work:(Array.make 8 1.0) ~node_rates:(Array.make 8 10.0) () in
  let evaluator = Analytic.throughput spec in
  let result = Search.auto ~exhaustive_limit:100 ~stages:8 ~processors:8 evaluator in
  (* 8^8 >> 100, so auto must have taken the greedy+hill path; its answer
     should still be a local optimum. *)
  List.iter
    (fun n ->
      if evaluator n > result.Search.score +. 1e-9 then Alcotest.fail "auto not locally optimal")
    (Mapping.neighbours result.Search.mapping ~processors:8)

let test_search_best_of () =
  let candidates =
    [ Mapping.of_array ~processors:2 [| 0; 0 |]; Mapping.of_array ~processors:2 [| 0; 1 |] ]
  in
  let spec = synthetic_spec ~stage_work:[| 1.0; 1.0 |] ~node_rates:[| 10.0; 10.0 |] () in
  let result = Search.best_of candidates (Analytic.throughput spec) in
  Alcotest.(check (array int)) "spread wins" [| 0; 1 |] (Mapping.to_array result.Search.mapping);
  Alcotest.check_raises "empty candidates" (Invalid_argument "Search.best_of: no candidates")
    (fun () -> ignore (Search.best_of [] (Analytic.throughput spec)))


let test_predictor_fix_first_pins () =
  let spec = synthetic_spec ~stage_work:[| 1.0; 1.0; 1.0 |] ~node_rates:[| 1.0; 10.0; 10.0 |] () in
  let predictor = Predictor.make spec in
  let pinned = Predictor.choose ~fix_first_on:0 predictor in
  Alcotest.(check int) "stage 0 stays pinned despite the slow node" 0
    (Mapping.processor_of pinned.Search.mapping 0);
  let free = Predictor.choose predictor in
  Alcotest.(check bool) "unpinned beats pinned" true
    (free.Search.score >= pinned.Search.score)

(* ------------------------------------------------------------ Predictor *)

let test_predictor_kinds_agree_on_ranking () =
  let spec =
    synthetic_spec ~stage_work:[| 1.0; 1.0 |] ~node_rates:[| 10.0; 2.0 |] ()
  in
  let analytic = Predictor.make ~kind:Predictor.Analytic spec in
  let ctmc = Predictor.make ~kind:Predictor.Ctmc spec in
  let good = Mapping.of_array ~processors:2 [| 0; 0 |] in
  let bad = Mapping.of_array ~processors:2 [| 1; 1 |] in
  Alcotest.(check bool) "analytic prefers the fast node" true
    (Predictor.evaluate analytic good > Predictor.evaluate analytic bad);
  Alcotest.(check bool) "ctmc prefers the fast node" true
    (Predictor.evaluate ctmc good > Predictor.evaluate ctmc bad)

let test_predictor_choose_and_completion () =
  let spec = synthetic_spec ~stage_work:[| 1.0; 1.0; 1.0 |] ~node_rates:[| 10.0; 10.0; 10.0 |] () in
  let predictor = Predictor.make spec in
  let result = Predictor.choose predictor in
  Alcotest.(check int) "one stage per processor is optimal" 3
    (List.length
       (List.sort_uniq compare (Array.to_list (Mapping.to_array result.Search.mapping))))

(* --------------------------------------- Mapping iterators & space sizing *)

let test_space_within_boundaries () =
  let some = Alcotest.(check (option int)) in
  some "3^3" (Some 27) (Mapping.space_within ~stages:3 ~processors:3 ~cap:27);
  some "3^3 over cap" None (Mapping.space_within ~stages:3 ~processors:3 ~cap:26);
  some "5^9 exact" (Some 1_953_125) (Mapping.space_size ~stages:9 ~processors:5);
  some "2^22 is exactly enumerable" (Some Mapping.max_enumeration)
    (Mapping.space_within ~stages:22 ~processors:2 ~cap:Mapping.max_enumeration);
  some "3^14 exceeds the cap" None
    (Mapping.space_within ~stages:14 ~processors:3 ~cap:Mapping.max_enumeration);
  some "stages 0" (Some 1) (Mapping.space_within ~stages:0 ~processors:7 ~cap:0);
  some "single processor never explodes" (Some 1)
    (Mapping.space_size ~stages:1000 ~processors:1);
  (* The overflow cases the float path silently misrounded. *)
  some "2^63 overflows" None (Mapping.space_size ~stages:63 ~processors:2);
  some "10^20 overflows" None (Mapping.space_size ~stages:20 ~processors:10);
  some "2^62 near max_int" None (Mapping.space_size ~stages:62 ~processors:2);
  some "2^61 fits" (Some (1 lsl 61)) (Mapping.space_size ~stages:61 ~processors:2)

let test_iter_enumerate_matches_enumerate () =
  let check_shape ?fix_first_on ~stages ~processors () =
    let listed =
      List.map Mapping.to_array (Mapping.enumerate ?fix_first_on ~stages ~processors ())
    in
    let iterated = ref [] in
    Mapping.iter_enumerate ?fix_first_on ~stages ~processors (fun m ->
        iterated := Mapping.to_array m :: !iterated);
    Alcotest.(check (list (array int)))
      (Printf.sprintf "Ns=%d Np=%d same order and content" stages processors)
      listed
      (List.rev !iterated)
  in
  check_shape ~stages:3 ~processors:3 ();
  check_shape ~stages:4 ~processors:2 ();
  check_shape ~fix_first_on:2 ~stages:4 ~processors:3 ();
  check_shape ~stages:1 ~processors:1 ();
  check_shape ~fix_first_on:0 ~stages:1 ~processors:4 ()

let test_iter_enumerate_cap_boundary () =
  (* Exactly 2^22 candidates is allowed; one multiplication more is not.
     Counting through the iterator keeps this memory-free. *)
  let count = ref 0 in
  Mapping.iter_enumerate ~stages:22 ~processors:2 (fun _ -> incr count);
  Alcotest.(check int) "2^22 visited" Mapping.max_enumeration !count;
  Alcotest.check_raises "3^14 too large"
    (Invalid_argument "Mapping.enumerate: assignment space too large") (fun () ->
      Mapping.iter_enumerate ~stages:14 ~processors:3 (fun _ -> ()))

let test_decode_code_roundtrip =
  qtest ~count:200 "decode/code_of round-trip in enumeration order"
    QCheck2.Gen.(triple (int_range 1 6) (int_range 1 4) (int_range 0 10_000))
    (fun (stages, processors, seed) ->
      let fix_first_on = if seed mod 3 = 0 then Some (seed mod processors) else None in
      let free = match fix_first_on with Some _ -> stages - 1 | None -> stages in
      let total = Option.get (Mapping.space_size ~stages:free ~processors) in
      let code = seed mod total in
      let m = Mapping.decode ?fix_first_on ~stages ~processors code in
      Mapping.code_of ?fix_first_on ~processors m = code)

let test_iter_neighbours_matches_neighbours () =
  let m = Mapping.of_array ~processors:3 [| 0; 2; 1; 1 |] in
  let listed = List.map Mapping.to_array (Mapping.neighbours m ~processors:3) in
  let iterated = ref [] in
  Mapping.iter_neighbours m ~processors:3 (fun ~stage ~target n ->
      Alcotest.(check int) "callback target matches the scratch entry" target
        (Mapping.processor_of n stage);
      iterated := Mapping.to_array n :: !iterated);
  Alcotest.(check (list (array int))) "same order and content" listed (List.rev !iterated)

(* ------------------------------------------------- Incremental evaluator *)

(* Random specs exercising the corners the differential battery cares
   about: zero-work stages, [infinity] node rates, duplicated rates and
   uniform link matrices (so processor-symmetry classes are non-trivial),
   plus fully heterogeneous draws. *)
let gen_spec_sized ~max_processors =
  QCheck2.Gen.(
    let* stages = int_range 1 5 in
    let* processors = int_range 1 max_processors in
    let* uniform = bool in
    let rate =
      if uniform then oneofl [ 5.0; 10.0; infinity ]
      else oneof [ float_range 1.0 20.0; oneofl [ 0.0; infinity ] ]
    in
    let work = oneof [ float_range 0.1 3.0; oneofl [ 0.0; 1.0 ] ] in
    let* stage_work = array_size (return stages) work in
    let* node_rates = array_size (return processors) rate in
    let* item_bytes = float_range 0.0 2e4 in
    let* output_bytes = array_size (return stages) (float_range 0.0 2e4) in
    let* base_latency = if uniform then return 0.01 else float_range 0.0 0.05 in
    let* base_bandwidth = if uniform then return 1e6 else float_range 1e5 1e7 in
    let* latency_cells =
      array_size (return (processors * processors)) (float_range 0.0 0.05)
    in
    let* bandwidth_cells =
      array_size (return (processors * processors)) (float_range 1e5 1e7)
    in
    let latency =
      Array.init processors (fun src ->
          Array.init processors (fun dst ->
              if uniform then base_latency else latency_cells.((src * processors) + dst)))
    in
    let bandwidth =
      Array.init processors (fun src ->
          Array.init processors (fun dst ->
              if uniform then base_bandwidth
              else bandwidth_cells.((src * processors) + dst)))
    in
    return
      {
        Costspec.stage_work;
        node_rates;
        item_bytes;
        output_bytes;
        latency;
        bandwidth;
        user_latency = Array.make processors (if uniform then 0.01 else base_latency);
        user_bandwidth = Array.make processors (if uniform then 1e6 else base_bandwidth);
      })

let gen_spec = gen_spec_sized ~max_processors:4

let bits = Int64.bits_of_float

let test_incr_matches_full_evaluator =
  qtest ~count:300 "Incr score == Analytic.throughput over random move sequences"
    QCheck2.Gen.(
      triple gen_spec (int_range 0 10_000) (list_size (int_range 0 30) (pair small_nat small_nat)))
    (fun (spec, seed, raw_moves) ->
      let stages = Costspec.stages spec and processors = Costspec.processors spec in
      let total = Option.get (Mapping.space_size ~stages ~processors) in
      let start = Mapping.decode ~stages ~processors (seed mod total) in
      let st = Analytic.Incr.create spec start in
      let agree () =
        bits (Analytic.Incr.score st)
        = bits (Analytic.throughput spec (Analytic.Incr.mapping st))
      in
      agree ()
      && List.for_all
           (fun (s, p) ->
             Analytic.Incr.move st ~stage:(s mod stages) (p mod processors);
             agree ())
           raw_moves)

let check_results_identical name (a : Search.result) (b : Search.result) =
  Alcotest.(check (array int))
    (name ^ ": same mapping")
    (Mapping.to_array a.Search.mapping)
    (Mapping.to_array b.Search.mapping);
  Alcotest.(check int64) (name ^ ": same score bits") (bits a.Search.score)
    (bits b.Search.score)

let test_exhaustive_backends_agree =
  qtest ~count:200 "all exhaustive backends return the reference result"
    QCheck2.Gen.(pair gen_spec (int_range 0 1000))
    (fun (spec, seed) ->
      let stages = Costspec.stages spec and processors = Costspec.processors spec in
      let fix_first_on =
        if seed mod 3 = 0 && stages > 1 then Some (seed mod processors) else None
      in
      let reference =
        Search.exhaustive_ref ?fix_first_on ~stages ~processors (Analytic.throughput spec)
      in
      let same (r : Search.result) =
        Mapping.equal r.Search.mapping reference.Search.mapping
        && bits r.Search.score = bits reference.Search.score
      in
      let full (r : Search.result) = same r && r.Search.evaluated = reference.Search.evaluated in
      (* Incumbents: none, a random candidate (on the pin when there is one),
         and one off the pin, which must be ignored. *)
      let free = match fix_first_on with Some _ -> stages - 1 | None -> stages in
      let random_incumbent =
        Mapping.decode ?fix_first_on ~stages ~processors
          (seed / 3 mod Option.get (Mapping.space_size ~stages:free ~processors))
      in
      let incumbents =
        None :: Some random_incumbent
        :: (match fix_first_on with
           | Some p when processors > 1 ->
               let off = Mapping.to_array random_incumbent in
               off.(0) <- (p + 1) mod processors;
               [ Some (Mapping.of_array ~processors off) ]
           | _ -> [])
      in
      full (Search.exhaustive ?fix_first_on ~stages ~processors (Analytic.throughput spec))
      && full (Search.exhaustive_spec ?fix_first_on ~prune:false ~canonical:false spec)
      && List.for_all
           (fun incumbent ->
             List.for_all
               (fun (prune, canonical) ->
                 same (Search.exhaustive_spec ?fix_first_on ~prune ~canonical ?incumbent spec))
               [ (false, false); (true, false); (false, true); (true, true) ])
           incumbents)

let test_hill_climb_spec_matches_generic =
  qtest ~count:200 "hill_climb_spec replicates the generic climb exactly"
    QCheck2.Gen.(pair gen_spec (int_range 0 10_000))
    (fun (spec, seed) ->
      let stages = Costspec.stages spec and processors = Costspec.processors spec in
      let total = Option.get (Mapping.space_size ~stages ~processors) in
      let start = Mapping.decode ~stages ~processors (seed mod total) in
      let generic =
        Search.hill_climb ~start ~processors (Analytic.throughput spec)
      in
      let incr = Search.hill_climb_spec ~start spec in
      Mapping.equal generic.Search.mapping incr.Search.mapping
      && bits generic.Search.score = bits incr.Search.score
      && generic.Search.evaluated = incr.Search.evaluated)

let test_auto_spec_matches_auto =
  qtest ~count:100 "auto_spec agrees with the generic auto on both sides of the limit"
    QCheck2.Gen.(pair gen_spec (oneofl [ 2; 200_000 ]))
    (fun (spec, limit) ->
      let stages = Costspec.stages spec and processors = Costspec.processors spec in
      let generic =
        Search.auto ~exhaustive_limit:limit ~stages ~processors (Analytic.throughput spec)
      in
      let fast = Search.auto_spec ~exhaustive_limit:limit spec in
      Mapping.equal generic.Search.mapping fast.Search.mapping
      && bits generic.Search.score = bits fast.Search.score)

(* The uniform grid is maximally tie-heavy: every processor permutation of a
   mapping scores identically. The contract — lowest enumeration code wins —
   must hold on every backend, or plain and pruned searches diverge. *)
let test_exhaustive_tie_break_lowest_code () =
  let spec =
    synthetic_spec ~stage_work:[| 1.0; 1.0; 1.0; 1.0 |]
      ~node_rates:[| 10.0; 10.0; 10.0 |] ~latency:0.01 ~bandwidth:1e7 ()
  in
  let candidates = Mapping.enumerate ~stages:4 ~processors:3 () in
  let scores = List.map (Analytic.throughput spec) candidates in
  let best = List.fold_left Float.max neg_infinity scores in
  let ties = List.length (List.filter (fun s -> s = best) scores) in
  Alcotest.(check bool) "the spec is genuinely tie-heavy" true (ties > 1);
  let expected_code =
    let rec first i = function
      | [] -> assert false
      | s :: rest -> if s = best then i else first (i + 1) rest
    in
    first 0 scores
  in
  let check_backend name (r : Search.result) =
    Alcotest.(check int64) (name ^ ": argmax score") (bits best) (bits r.Search.score);
    Alcotest.(check int)
      (name ^ ": lowest code among ties")
      expected_code
      (Mapping.code_of ~processors:3 r.Search.mapping)
  in
  check_backend "reference"
    (Search.exhaustive_ref ~stages:4 ~processors:3 (Analytic.throughput spec));
  check_backend "generic iterator"
    (Search.exhaustive ~stages:4 ~processors:3 (Analytic.throughput spec));
  check_backend "gray walk" (Search.exhaustive_spec ~prune:false ~canonical:false spec);
  check_backend "pruned" (Search.exhaustive_spec ~canonical:false spec);
  check_backend "canonicalized" (Search.exhaustive_spec spec);
  (* Seeding with the highest-code tie must not let it win: pruning is
     strict, so the lower-code ties are still reached and preferred. *)
  let incumbent =
    List.fold_left2 (fun acc m s -> if s = best then Some m else acc) None candidates scores
    |> Option.get
  in
  Alcotest.(check bool) "the incumbent is not the lowest-code tie" true
    (Mapping.code_of ~processors:3 incumbent <> expected_code);
  List.iter
    (fun (name, prune, canonical) ->
      check_backend ("seeded " ^ name) (Search.exhaustive_spec ~prune ~canonical ~incumbent spec))
    [
      ("gray walk", false, false);
      ("pruned", true, false);
      ("canonicalized", false, true);
      ("pruned + canonicalized", true, true);
    ]

(* A forecast-like spec with one loaded node and distinct per-link
   latencies, so no two processors are interchangeable. Seeded with its
   optimum, the bound prunes all but a sliver of what the unseeded walk
   scores. *)
let test_incumbent_prunes_forecast_spec () =
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
  (* Leaves the search scored on this spec before it took an incumbent and
     bounded cycle stations. *)
  let unseeded_before = 12_259 in
  let cold = Search.exhaustive_spec spec in
  let seeded = Search.exhaustive_spec ~incumbent:cold.Search.mapping spec in
  check_results_identical "seeded vs cold" seeded cold;
  Alcotest.(check bool)
    (Printf.sprintf "cold walk scores %d <= %d leaves" cold.Search.evaluated unseeded_before)
    true
    (cold.Search.evaluated <= unseeded_before);
  Alcotest.(check bool)
    (Printf.sprintf "seeded walk scores %d <= %d / 10 leaves" seeded.Search.evaluated
       unseeded_before)
    true
    (seeded.Search.evaluated * 10 <= unseeded_before)

let test_auto_spec_keeps_pin =
  qtest ~count:100 "auto_spec keeps stage 0 on the pin on both sides of the limit"
    QCheck2.Gen.(triple gen_spec (oneofl [ 2; 200_000 ]) small_nat)
    (fun (spec, limit, raw_pin) ->
      let processors = Costspec.processors spec in
      let pin = raw_pin mod processors in
      let r = Search.auto_spec ~exhaustive_limit:limit ~fix_first_on:pin spec in
      Mapping.processor_of r.Search.mapping 0 = pin
      && bits r.Search.score = bits (Analytic.throughput spec r.Search.mapping))

let test_predictor_pinned_respects_limit () =
  (* 4^12 free assignments exceed both the default limit and the enumeration cap:
     the pinned search must fall back to greedy + climb, not raise. *)
  let spec =
    synthetic_spec
      ~stage_work:(Array.init 13 (fun i -> 0.5 +. (0.1 *. Float.of_int i)))
      ~node_rates:[| 4.0; 10.0; 9.0; 7.0 |] ()
  in
  let r = Predictor.choose ~fix_first_on:0 (Predictor.make spec) in
  Alcotest.(check int) "stage 0 pinned" 0 (Mapping.processor_of r.Search.mapping 0);
  Alcotest.(check int64) "score is the mapping's throughput"
    (bits (Analytic.throughput spec r.Search.mapping))
    (bits r.Search.score)

let test_canonicalization_prunes_symmetric_grid () =
  (* 4 interchangeable processors: only one representative per symmetry
     class may be scored — far fewer than 4^5 leaves. *)
  let spec =
    synthetic_spec ~stage_work:[| 1.0; 0.5; 2.0; 1.0; 0.7 |]
      ~node_rates:[| 10.0; 10.0; 10.0; 10.0 |] ()
  in
  let plain = Search.exhaustive_spec ~prune:false ~canonical:false spec in
  let canon = Search.exhaustive_spec ~prune:false ~canonical:true spec in
  check_results_identical "canonical vs plain" canon plain;
  Alcotest.(check bool)
    (Printf.sprintf "scored %d << %d leaves" canon.Search.evaluated plain.Search.evaluated)
    true
    (canon.Search.evaluated * 4 < plain.Search.evaluated)

let test_default_exhaustive_limit_raised () =
  Alcotest.(check bool)
    (Printf.sprintf "default limit %d >= 10x the historical 20k"
       Search.default_exhaustive_limit)
    true
    (Search.default_exhaustive_limit >= 200_000)

(* The enumerate-and-fold scale-down search that [Predictor.cheapest]
   replaced: materialize every mapping in code order, keep the fewest
   distinct nodes covering [required], then the higher rate; an equal rate
   keeps the earlier mapping. *)
let cheapest_ref ~required ~spec predictor =
  let stages = Costspec.stages spec and processors = Costspec.processors spec in
  let distinct_nodes m = List.length (List.sort_uniq Int.compare (Array.to_list m)) in
  match Mapping.enumerate ~stages ~processors () with
  | exception Invalid_argument _ -> None
  | candidates ->
      let best =
        List.fold_left
          (fun acc m ->
            let rate = Predictor.evaluate predictor m in
            if rate < required then acc
            else
              let cost = distinct_nodes (Mapping.to_array m) in
              match acc with
              | Some (bc, br, _) when bc < cost || (bc = cost && br >= rate) -> acc
              | _ -> Some (cost, rate, m))
          None candidates
      in
      Option.map (fun (_, _, m) -> m) best

(* [required] is 0 (everything qualifies), just above the best rate
   (nothing does), exactly some candidate's rate, the best rate, or the
   best rate among the mappings on some node count. So answers come on
   every node count, and ties on the threshold and between equal-rate
   mappings on different processor sets are exercised. *)
let cheapest_agrees ~kind (spec, pick, k) =
  let predictor = Predictor.make ~kind spec in
  let processors = Costspec.processors spec and stages = Costspec.stages spec in
  let scored =
    match Mapping.enumerate ~stages ~processors () with
    | exception Invalid_argument _ -> [ (1, 0.0) ]
    | candidates ->
        List.map
          (fun m ->
            ( List.length (List.sort_uniq Int.compare (Array.to_list (Mapping.to_array m))),
              Predictor.evaluate predictor m ))
          candidates
  in
  let best_on keep =
    List.fold_left (fun acc (n, r) -> if keep n then Float.max acc r else acc) 0.0 scored
  in
  let best = best_on (fun _ -> true) in
  let required =
    match pick with
    | 0 -> 0.0
    | 1 -> Float.succ best
    | 2 -> snd (List.nth scored (k mod List.length scored))
    | 3 -> best
    | _ -> best_on (fun n -> n = 1 + (k mod min stages processors))
  in
  let show = Option.map Mapping.to_array in
  show (Predictor.cheapest ~required predictor) = show (cheapest_ref ~required ~spec predictor)

let test_cheapest_matches_fold =
  qtest ~count:300 "cheapest walk = enumerate-and-fold (analytic)"
    QCheck2.Gen.(triple (gen_spec_sized ~max_processors:5) (int_range 0 4) (int_range 0 10_000))
    (cheapest_agrees ~kind:Predictor.Analytic)

(* The CTMC kind on chains small enough to solve 27 times per case, with
   positive rates only (a zero rate is not a valid CTMC input). *)
let test_cheapest_matches_fold_ctmc =
  let spec =
    QCheck2.Gen.(
      let* stages = int_range 1 3 in
      let* processors = int_range 1 3 in
      let* stage_work = array_size (return stages) (float_range 0.2 3.0) in
      let* node_rates = array_size (return processors) (oneof [ float_range 1.0 20.0; return 10.0 ]) in
      return (synthetic_spec ~stage_work ~node_rates ~latency:0.01 ~bandwidth:1e6 ()))
  in
  qtest ~count:40 "cheapest walk = enumerate-and-fold (ctmc)"
    QCheck2.Gen.(triple spec (int_range 0 4) (int_range 0 10_000))
    (cheapest_agrees ~kind:Predictor.Ctmc)

(* The flat CTMC against the list-based one it replaced (test/ctmc_ref.ml)
   on random chains of 1-5 stages: bit-identical power and Gauss-Seidel
   vectors (so the same state count) and throughputs. Move rates up to 1e3 times the service rates make some
   power solves run out of iterations; both must then fail alike. *)
let test_flat_ctmc_matches_lists =
  let module Ref = Ctmc_ref in
  let same_vector a b =
    Array.length a = Array.length b && Array.for_all2 (fun x y -> Int64.equal (bits x) (bits y)) a b
  in
  let solve solve model =
    match solve model with pi -> Ok pi | exception Failure message -> Error message
  in
  let agree a b =
    match (a, b) with
    | Ok a, Ok b -> same_vector a b
    | Error a, Error b -> String.equal a b
    | Ok _, Error _ | Error _, Ok _ -> false
  in
  qtest ~count:150 "flat sweeps = list sweeps, bit for bit"
    QCheck2.Gen.(
      let* stages = int_range 1 5 in
      let* service_rates = array_size (return stages) (float_range 0.1 20.0) in
      let* move_rates =
        array_size (return (stages + 1)) (oneof [ float_range 0.5 100.0; return 1e3; return infinity ])
      in
      return (service_rates, move_rates))
    (fun (service_rates, move_rates) ->
      let flat = Ctmc.build ~service_rates ~move_rates in
      let lists = Ref.build ~service_rates ~move_rates in
      let power = solve (Ctmc.steady_state ~solver:Ctmc.Power ~max_iter:3000) flat in
      let power_ref = solve (Ref.steady_state ~solver:Ref.Power ~max_iter:3000) lists in
      let gs = solve (Ctmc.steady_state ~solver:Ctmc.Gauss_seidel) flat in
      let gs_ref = solve (Ref.steady_state ~solver:Ref.Gauss_seidel) lists in
      agree power power_ref && agree gs gs_ref
      && (match gs with
         | Ok _ -> Int64.equal (bits (Ctmc.throughput flat)) (bits (Ref.throughput lists))
         | Error _ -> true))

let () =
  Alcotest.run "aspipe_model"
    [
      ( "mapping",
        [
          Alcotest.test_case "of_array" `Quick test_mapping_of_array;
          Alcotest.test_case "round robin" `Quick test_mapping_round_robin;
          Alcotest.test_case "blocks" `Quick test_mapping_blocks;
          Alcotest.test_case "enumerate" `Quick test_mapping_enumerate;
          Alcotest.test_case "neighbours" `Quick test_mapping_neighbours;
          Alcotest.test_case "colocation" `Quick test_mapping_colocation;
        ] );
      ( "costspec",
        [
          Alcotest.test_case "dimensions" `Quick test_costspec_dimensions;
          Alcotest.test_case "service rate sharing" `Quick test_costspec_service_rate_sharing;
          Alcotest.test_case "move rates" `Quick test_costspec_move_rates;
          Alcotest.test_case "with_stage_work" `Quick test_costspec_with_stage_work;
          Alcotest.test_case "link quality override" `Quick test_costspec_link_quality_override;
        ] );
      ( "analytic",
        [
          Alcotest.test_case "processor bottleneck" `Quick test_analytic_processor_bottleneck;
          Alcotest.test_case "cycle bottleneck" `Quick test_analytic_cycle_bottleneck;
          Alcotest.test_case "colocation halves" `Quick test_analytic_colocation_halves;
          test_analytic_monotone_in_speed;
          test_upper_bound_admissible;
        ] );
      ( "ctmc",
        [
          Alcotest.test_case "state count" `Quick test_ctmc_state_count;
          Alcotest.test_case "build validation" `Quick test_ctmc_build_validation;
          Alcotest.test_case "steady state properties" `Quick test_ctmc_steady_state_properties;
          Alcotest.test_case "PEPA row: (1,2,3) t=0.1" `Quick test_ctmc_reproduces_pepa_row1;
          Alcotest.test_case "PEPA row: (1,2,3) t=0.2" `Quick test_ctmc_reproduces_pepa_row2;
          Alcotest.test_case "PEPA row: (1,1,1) t=0.1" `Quick test_ctmc_reproduces_pepa_all_on_one;
          Alcotest.test_case "fast network limit" `Quick test_ctmc_matches_analytic_on_fast_network;
          Alcotest.test_case "of_costspec consistency" `Quick test_ctmc_of_costspec_consistency;
        ] );
      ( "farm_model",
        [
          Alcotest.test_case "rates" `Quick test_farm_model_rates;
          Alcotest.test_case "best set" `Quick test_farm_model_best_set;
          test_farm_model_best_set_exhaustive;
        ] );
      ( "repl_model",
        [
          Alcotest.test_case "capacity" `Quick test_repl_model_capacity;
          Alcotest.test_case "shared node splits" `Quick test_repl_model_shared_node_splits;
          Alcotest.test_case "best replication" `Quick test_repl_model_best_replication;
          Alcotest.test_case "validation" `Quick test_repl_model_validation;
          test_repl_model_monotone_in_replicas;
        ] );
      ( "pepa_export",
        [
          Alcotest.test_case "structure" `Quick test_pepa_export_structure;
          Alcotest.test_case "rates match" `Quick test_pepa_export_rates_match_ctmc_inputs;
        ] );
      ( "solvers",
        [
          test_flat_ctmc_matches_lists;
          Alcotest.test_case "agree" `Quick test_ctmc_solvers_agree;
          Alcotest.test_case "stiff chains" `Quick test_ctmc_gauss_seidel_handles_stiff;
          test_cross_model_bounds;
        ] );
      ( "search",
        [
          Alcotest.test_case "exhaustive argmax" `Quick test_search_exhaustive_finds_max;
          test_search_exhaustive_vs_random_evaluator;
          Alcotest.test_case "hill climb local optimum" `Quick test_search_hill_climb_local_optimum;
          Alcotest.test_case "greedy reasonable" `Quick test_search_greedy_reasonable;
          Alcotest.test_case "auto switches" `Quick test_search_auto_switches;
          Alcotest.test_case "best_of" `Quick test_search_best_of;
          Alcotest.test_case "fix_first pins" `Quick test_predictor_fix_first_pins;
        ] );
      ( "mapping iterators",
        [
          Alcotest.test_case "space sizing boundaries" `Quick test_space_within_boundaries;
          Alcotest.test_case "iter_enumerate = enumerate" `Quick
            test_iter_enumerate_matches_enumerate;
          Alcotest.test_case "enumeration cap boundary" `Quick test_iter_enumerate_cap_boundary;
          test_decode_code_roundtrip;
          Alcotest.test_case "iter_neighbours = neighbours" `Quick
            test_iter_neighbours_matches_neighbours;
        ] );
      ( "incremental search",
        [
          test_incr_matches_full_evaluator;
          test_exhaustive_backends_agree;
          test_hill_climb_spec_matches_generic;
          test_auto_spec_matches_auto;
          Alcotest.test_case "tie-break: lowest code wins" `Quick
            test_exhaustive_tie_break_lowest_code;
          Alcotest.test_case "symmetry canonicalization prunes" `Quick
            test_canonicalization_prunes_symmetric_grid;
          Alcotest.test_case "exhaustive limit raised 10x" `Quick
            test_default_exhaustive_limit_raised;
          Alcotest.test_case "incumbent prunes a forecast spec" `Quick
            test_incumbent_prunes_forecast_spec;
          Alcotest.test_case "pinned choose respects the limit" `Quick
            test_predictor_pinned_respects_limit;
          test_auto_spec_keeps_pin;
        ] );
      ( "predictor",
        [
          Alcotest.test_case "kinds agree" `Quick test_predictor_kinds_agree_on_ranking;
          Alcotest.test_case "choose & completion" `Quick test_predictor_choose_and_completion;
          test_cheapest_matches_fold;
          test_cheapest_matches_fold_ctmc;
        ] );
    ]
