(* Tests for the campaign runner: the pool's claim order, pool
   determinism (index-ordered collection, nested fan-out, exception
   propagation), the content-addressed cache, and the golden
   guarantee that --jobs 1 and --jobs N produce byte-identical output —
   down to the JSONL event stream of an adaptive run executed inside a
   pool task. *)

module Pool = Aspipe_runner.Pool
module Cache = Aspipe_runner.Cache
module Campaign = Aspipe_runner.Campaign
module Jsonl = Aspipe_obs.Jsonl

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ Pool *)

let with_pool ~workers f =
  let pool = Pool.create ~workers () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let test_pool_matches_map =
  qtest ~count:30 "pool map = List.map at any worker count"
    QCheck2.Gen.(pair (list_size (int_range 0 100) int) (int_range 1 4))
    (fun (xs, workers) ->
      with_pool ~workers (fun pool ->
          Pool.map_list pool (fun x -> (x * 31) mod 1009) xs
          = List.map (fun x -> (x * 31) mod 1009) xs))

let test_pool_results_by_index () =
  (* Deliberately uneven task costs: results must still land by input
     index, not completion order. *)
  with_pool ~workers:4 (fun pool ->
      let inputs = Array.init 40 Fun.id in
      let f i =
        let spin = if i mod 7 = 0 then 20_000 else 10 in
        let acc = ref i in
        for _ = 1 to spin do
          acc := (!acc * 17) mod 1000003
        done;
        (i, !acc)
      in
      let expected = Array.map f inputs in
      Alcotest.(check (array (pair int int))) "index order" expected (Pool.map pool f inputs))

let test_pool_nested_map () =
  (* An outer batch whose tasks each fan out an inner batch on the same
     pool: the helping await must let this drain on 2 workers. *)
  with_pool ~workers:2 (fun pool ->
      let outer = List.init 6 Fun.id in
      let result =
        Pool.map_list pool
          (fun i -> List.fold_left ( + ) 0 (Pool.map_list pool (fun j -> (i * 10) + j) [ 1; 2; 3; 4; 5 ]))
          outer
      in
      let expected = List.map (fun i -> List.fold_left ( + ) 0 (List.map (fun j -> (i * 10) + j) [ 1; 2; 3; 4; 5 ])) outer in
      Alcotest.(check (list int)) "nested fan-out" expected result)

let test_pool_claims_oldest_first () =
  (* One worker, and the batch's first task fans out a nested batch. The
     queue is FIFO for workers and helping awaiters alike: the rest of the
     top-level batch runs in submission order, then the nested tasks, and
     the first task resumes last. *)
  with_pool ~workers:1 (fun pool ->
      let log = ref [] in
      let note s = log := s :: !log in
      ignore
        (Pool.map_list pool
           (fun i ->
             note (Printf.sprintf "top %d" i);
             if i = 0 then begin
               ignore (Pool.map_list pool (fun j -> note (Printf.sprintf "nested %d" j)) [ 0; 1; 2 ]);
               note "resume 0"
             end)
           [ 0; 1; 2; 3 ]);
      Alcotest.(check (list string)) "claim order"
        [ "top 0"; "top 1"; "top 2"; "top 3"; "nested 0"; "nested 1"; "nested 2"; "resume 0" ]
        (List.rev !log))

let test_pool_exception_propagates () =
  let boom = Failure "pool-boom" in
  with_pool ~workers:3 (fun pool ->
      Alcotest.check_raises "first task exception re-raised" boom (fun () ->
          ignore (Pool.map_list pool (fun x -> if x = 13 then raise boom else x) (List.init 50 Fun.id)));
      (* The pool survives a failed batch and runs the next one. *)
      Alcotest.(check (list int)) "pool still serviceable" [ 2; 4; 6 ]
        (Pool.map_list pool (fun x -> 2 * x) [ 1; 2; 3 ]))

let test_pool_empty_batch () =
  with_pool ~workers:2 (fun pool ->
      Alcotest.(check (list int)) "empty" [] (Pool.map_list pool Fun.id []))

let test_pool_stats () =
  with_pool ~workers:3 (fun pool ->
      ignore (Pool.map_list pool Fun.id (List.init 30 Fun.id));
      let stats = Pool.stats pool in
      Alcotest.(check int) "workers recorded" 3 stats.Pool.workers;
      Alcotest.(check int) "every task accounted"
        30
        (Array.fold_left ( + ) 0 stats.Pool.tasks_executed);
      Alcotest.(check int) "size" 3 (Pool.stats pool).workers)

let test_pool_invalid_workers () =
  Alcotest.check_raises "workers 0" (Invalid_argument "Pool.create: workers must be >= 1")
    (fun () -> ignore (Pool.create ~workers:0 ()))

(* ----------------------------------------------------------------- Cache *)

let temp_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let test_cache_round_trip () =
  match Cache.open_ ~dir:(temp_dir "aspipe-cache") with
  | None -> Alcotest.fail "cache refused to open (executable not digestible?)"
  | Some cache ->
      let key = Cache.key cache ~id:"E1" ~title:"some table" ~quick:true in
      Alcotest.(check (option string)) "miss before store" None (Cache.find cache key);
      Cache.store cache key "captured output\n";
      Alcotest.(check (option string)) "hit after store" (Some "captured output\n")
        (Cache.find cache key)

let test_cache_key_distinguishes () =
  match Cache.open_ ~dir:(temp_dir "aspipe-cache") with
  | None -> Alcotest.fail "cache refused to open"
  | Some cache ->
      let base = Cache.key cache ~id:"E1" ~title:"t" ~quick:true in
      Alcotest.(check string) "key is stable" base (Cache.key cache ~id:"E1" ~title:"t" ~quick:true);
      Alcotest.(check bool) "quick flag changes the key" false
        (base = Cache.key cache ~id:"E1" ~title:"t" ~quick:false);
      Alcotest.(check bool) "id changes the key" false
        (base = Cache.key cache ~id:"E2" ~title:"t" ~quick:true);
      Alcotest.(check bool) "title changes the key" false
        (base = Cache.key cache ~id:"E1" ~title:"u" ~quick:true)

(* -------------------------------------------------------------- Campaign *)

let golden_ids = [ "E1"; "E18"; "E20" ]

let test_campaign_golden_determinism () =
  (* The tentpole guarantee: a parallel campaign is byte-identical to the
     sequential one, experiment by experiment. E1/E18/E20 cover a model
     table, a fault-tolerance table and a campaign-style figure. *)
  (* ~oversubscribe forces real pool workers even on a single-core host,
     where the adaptive cap would otherwise collapse jobs 4 to inline. *)
  let seq = Campaign.run ~jobs:1 ~only:golden_ids ~quick:true () in
  let par = Campaign.run ~jobs:4 ~oversubscribe:true ~only:golden_ids ~quick:true () in
  Alcotest.(check (list string)) "registry order, sequentially" golden_ids
    (List.map (fun o -> o.Campaign.id) seq.Campaign.outcomes);
  Alcotest.(check (list string)) "registry order, in parallel" golden_ids
    (List.map (fun o -> o.Campaign.id) par.Campaign.outcomes);
  List.iter2
    (fun a b ->
      Alcotest.(check string)
        (Printf.sprintf "%s byte-identical under jobs 1 vs jobs 4" a.Campaign.id)
        a.Campaign.output b.Campaign.output)
    seq.Campaign.outcomes par.Campaign.outcomes

let test_campaign_unknown_id () =
  Alcotest.check_raises "unknown id refused"
    (Invalid_argument "unknown experiment id: E99")
    (fun () -> ignore (Campaign.run ~jobs:1 ~only:[ "E99" ] ~quick:true ()))

let test_campaign_report_sanity () =
  let report = Campaign.run ~jobs:2 ~oversubscribe:true ~only:[ "E1" ] ~quick:true () in
  Alcotest.(check int) "jobs recorded" 2 report.Campaign.jobs;
  Alcotest.(check int) "workers recorded" 2 report.Campaign.workers;
  Alcotest.(check int) "utilisation per domain" 2 (Array.length report.Campaign.utilisation);
  Alcotest.(check bool) "wall time positive" true (report.Campaign.wall_seconds > 0.0);
  Alcotest.(check bool) "speedup positive" true (report.Campaign.speedup > 0.0);
  Array.iter
    (fun u -> Alcotest.(check bool) "utilisation in [0,1]" true (u >= 0.0 && u <= 1.0))
    report.Campaign.utilisation

let test_campaign_capped_workers () =
  (* Without ~oversubscribe, asking for more jobs than cores runs exactly
     one worker per core: the request is recorded but the pool is never
     oversubscribed (the jobs-4 inversion on a small host). With it, the
     request is taken literally. *)
  let cores = Domain.recommended_domain_count () in
  let jobs = cores + 2 in
  let report = Campaign.run ~jobs ~only:[ "E1" ] ~quick:true () in
  Alcotest.(check int) "jobs recorded as requested" jobs report.Campaign.jobs;
  Alcotest.(check int) "workers capped to the core count" cores report.Campaign.workers;
  let literal = Campaign.run ~jobs ~oversubscribe:true ~only:[ "E1" ] ~quick:true () in
  Alcotest.(check int) "oversubscribe takes jobs literally" jobs literal.Campaign.workers;
  Alcotest.(check int) "jobs 1 runs one inline worker" 1
    (Campaign.run ~jobs:1 ~only:[ "E1" ] ~quick:true ()).Campaign.workers

let test_campaign_cache_hits () =
  let dir = temp_dir "aspipe-campaign-cache" in
  let first = Campaign.run ~jobs:2 ~cache_dir:dir ~only:golden_ids ~quick:true () in
  let second = Campaign.run ~jobs:2 ~cache_dir:dir ~only:golden_ids ~quick:true () in
  Alcotest.(check int) "cold run computes" 0 first.Campaign.cache_hits;
  Alcotest.(check int) "warm run replays all" (List.length golden_ids) second.Campaign.cache_hits;
  List.iter2
    (fun a b ->
      Alcotest.(check string)
        (Printf.sprintf "%s cached bytes identical" a.Campaign.id)
        a.Campaign.output b.Campaign.output;
      Alcotest.(check bool) "flagged as cached" true b.Campaign.cached)
    first.Campaign.outcomes second.Campaign.outcomes

(* ----------------------------------------- trace determinism under a pool *)

(* The per-run isolation claim, checked at the finest grain we export: the
   JSONL event stream of a full adaptive run executed inside a pool task is
   byte-identical to the same run executed inline. *)

let adaptive_jsonl seed =
  let scenario =
    Aspipe_core.Scenario.make ~name:"runner-trace"
      ~make_topo:(fun engine ->
        Aspipe_grid.Topology.uniform engine ~n:3 ~speed:10.0 ~latency:0.01 ~bandwidth:1e7 ())
      ~loads:[ (0, Aspipe_grid.Loadgen.Step { at = 20.0; level = 0.2 }) ]
      ~stages:(Aspipe_workload.Synthetic.hot_stage ~n:4 ~factor:3.0 ())
      ~input:
        (Aspipe_skel.Stream_spec.make ~arrival:(Aspipe_skel.Stream_spec.Spaced 0.3) ~items:80 ())
      ~horizon:1e5 ()
  in
  let buffer = Buffer.create 65536 in
  ignore
    (Aspipe_core.Adaptive.run
       ~instrument:(fun bus -> Aspipe_obs.Bus.subscribe bus (Jsonl.sink_to_buffer buffer))
       ~scenario ~seed ());
  Buffer.contents buffer

let test_trace_bytes_identical_under_pool () =
  let seeds = [ 3; 7; 11; 19 ] in
  let inline = List.map adaptive_jsonl seeds in
  let pooled = with_pool ~workers:4 (fun pool -> Pool.map_list pool adaptive_jsonl seeds) in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: JSONL stream non-empty" (List.nth seeds i))
        true (String.length a > 0);
      Alcotest.(check string)
        (Printf.sprintf "seed %d: JSONL stream byte-identical in a pool task" (List.nth seeds i))
        a b)
    (List.combine inline pooled)

let () =
  Alcotest.run "aspipe_runner"
    [
      ( "pool",
        [
          test_pool_matches_map;
          Alcotest.test_case "results by index" `Quick test_pool_results_by_index;
          Alcotest.test_case "nested map (helping)" `Quick test_pool_nested_map;
          Alcotest.test_case "oldest task first" `Quick test_pool_claims_oldest_first;
          Alcotest.test_case "exception propagates" `Quick test_pool_exception_propagates;
          Alcotest.test_case "empty batch" `Quick test_pool_empty_batch;
          Alcotest.test_case "stats" `Quick test_pool_stats;
          Alcotest.test_case "invalid workers" `Quick test_pool_invalid_workers;
        ] );
      ( "cache",
        [
          Alcotest.test_case "round trip" `Quick test_cache_round_trip;
          Alcotest.test_case "key distinguishes" `Quick test_cache_key_distinguishes;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "golden determinism E1/E18/E20" `Slow test_campaign_golden_determinism;
          Alcotest.test_case "unknown id" `Quick test_campaign_unknown_id;
          Alcotest.test_case "report sanity" `Quick test_campaign_report_sanity;
          Alcotest.test_case "capped workers" `Quick test_campaign_capped_workers;
          Alcotest.test_case "cache hits" `Slow test_campaign_cache_hits;
        ] );
      ( "trace-determinism",
        [ Alcotest.test_case "JSONL bytes under pool" `Slow test_trace_bytes_identical_under_pool ] );
    ]
