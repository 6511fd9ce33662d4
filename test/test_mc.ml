(* Tests for the shared-memory backend: every parallel execution strategy
   must agree exactly with the sequential reference, under back pressure,
   fusion, replication and exceptions. *)

module Pipe = Aspipe_skel.Pipe
module Spsc = Aspipe_util.Spsc
module Skel_mc = Aspipe_skel.Skel_mc
module Farm_mc = Aspipe_skel.Farm_mc

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let int_chain =
  let open Pipe in
  (fun x -> x + 3) @> (fun x -> x * 2) @> (fun x -> x - 1) @> last (fun x -> x * x)

let test_run_matches_seq () =
  let inputs = List.init 100 Fun.id in
  Alcotest.(check (list int)) "parallel = sequential" (Skel_mc.run_seq int_chain inputs)
    (Skel_mc.run int_chain inputs)

let test_run_preserves_order =
  qtest "run preserves input order for any payload"
    QCheck2.Gen.(list_size (int_range 0 200) int)
    (fun inputs -> Skel_mc.run int_chain inputs = List.map (Pipe.apply int_chain) inputs)

let test_run_empty () =
  Alcotest.(check (list int)) "empty stream" [] (Skel_mc.run int_chain [])

let test_run_single_item () =
  Alcotest.(check (list int)) "one item" [ Pipe.apply int_chain 7 ] (Skel_mc.run int_chain [ 7 ])

let test_run_capacity_one () =
  let inputs = List.init 50 Fun.id in
  Alcotest.(check (list int)) "tight back pressure"
    (Skel_mc.run_seq int_chain inputs)
    (Skel_mc.run ~capacity:1 int_chain inputs)

let test_run_grouped_matches () =
  let inputs = List.init 60 Fun.id in
  let expected = Skel_mc.run_seq int_chain inputs in
  List.iter
    (fun groups ->
      Alcotest.(check (list int))
        (Printf.sprintf "grouped %s" (String.concat "" (List.map string_of_int (Array.to_list groups))))
        expected
        (Skel_mc.run_grouped ~groups int_chain inputs))
    [ [| 0; 0; 0; 0 |]; [| 0; 0; 1; 1 |]; [| 0; 1; 2; 3 |]; [| 0; 1; 1; 2 |] ]

let test_run_heterogeneous_types () =
  let open Pipe in
  let chain = string_of_int @> String.length @> last (fun n -> n * 10) in
  Alcotest.(check (list int)) "types change across stages" [ 10; 20; 30; 40 ]
    (Skel_mc.run chain [ 1; 10; 100; 1000 ])

(* Float items travel in flat float arrays (the rings' slots and every
   chunk buffer are sized from a float), mixed here with boxed stages. *)
let test_run_float_payloads () =
  let open Pipe in
  let chain = (fun x -> x *. 0.5) @> (fun x -> (x, -.x)) @> last (fun (a, b) -> a -. b) in
  let inputs = List.init 300 (fun i -> Float.of_int i +. 0.25) in
  List.iter
    (fun batch ->
      Alcotest.(check (list (float 0.0)))
        (Printf.sprintf "batch %d" batch)
        (Skel_mc.run_seq chain inputs)
        (Skel_mc.run ~capacity:4 ~batch chain inputs))
    [ 1; 8 ]

let test_run_timed_returns_outputs () =
  let outputs, seconds = Skel_mc.run_timed int_chain [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "outputs intact" (Skel_mc.run_seq int_chain [ 1; 2; 3 ]) outputs;
  Alcotest.(check bool) "time non-negative" true (seconds >= 0.0)

(* ------------------------------------------------------------ edge cases *)

(* The degenerate shapes every backend must get right: a pipe of one stage
   (no inter-stage channel at all), nothing flowing through any backend,
   and the whole chain fused into a single group under the tightest
   back-pressure — each asserting output order, not just content. *)

let single_stage = Pipe.last (fun x -> x + 1)

let test_single_stage_pipe () =
  let inputs = List.init 40 Fun.id in
  let expected = List.map (fun x -> x + 1) inputs in
  Alcotest.(check (list int)) "run_seq" expected (Skel_mc.run_seq single_stage inputs);
  Alcotest.(check (list int)) "run" expected (Skel_mc.run single_stage inputs);
  Alcotest.(check (list int)) "run, capacity 1" expected
    (Skel_mc.run ~capacity:1 single_stage inputs);
  Alcotest.(check (list int)) "run_grouped, one group" expected
    (Skel_mc.run_grouped ~groups:[| 0 |] single_stage inputs)

let test_empty_every_backend () =
  Alcotest.(check (list int)) "run" [] (Skel_mc.run int_chain []);
  Alcotest.(check (list int)) "run, capacity 1" [] (Skel_mc.run ~capacity:1 int_chain []);
  Alcotest.(check (list int)) "run_grouped" []
    (Skel_mc.run_grouped ~groups:[| 0; 0; 0; 0 |] int_chain []);
  Alcotest.(check (list int)) "single stage" [] (Skel_mc.run single_stage [])

let test_one_group_capacity_one_order () =
  let inputs = List.init 80 (fun i -> 79 - i) in
  let expected = List.map (Pipe.apply int_chain) inputs in
  Alcotest.(check (list int)) "everything fused on one domain, capacity 1" expected
    (Skel_mc.run ~capacity:1 (Pipe.fuse_groups [| 0; 0; 0; 0 |] int_chain) inputs)

(* ------------------------------------------------- batched SPSC transfer *)

(* The batch knob must never change semantics, only throughput: output
   equals the sequential reference across the (capacity × batch) grid,
   including batch > capacity (chunks transfer in partial slices) and
   batch > items (one short chunk). *)

let test_run_batch_matrix () =
  let inputs = List.init 333 Fun.id in
  let expected = Skel_mc.run_seq int_chain inputs in
  List.iter
    (fun capacity ->
      List.iter
        (fun batch ->
          Alcotest.(check (list int))
            (Printf.sprintf "capacity=%d batch=%d" capacity batch)
            expected
            (Skel_mc.run ~capacity ~batch int_chain inputs))
        [ 1; 8; 64; 512 ])
    [ 1; 2; 8 ]

let test_run_batch_exceeds_items () =
  let inputs = List.init 5 Fun.id in
  Alcotest.(check (list int)) "batch > items" (Skel_mc.run_seq int_chain inputs)
    (Skel_mc.run ~capacity:4 ~batch:64 int_chain inputs)

let test_run_invalid_batch () =
  Alcotest.check_raises "batch 0" (Invalid_argument "Skel_mc.run: batch must be positive")
    (fun () -> ignore (Skel_mc.run ~batch:0 int_chain [ 1 ]));
  Alcotest.check_raises "capacity 0" (Invalid_argument "Skel_mc.run: capacity must be positive")
    (fun () -> ignore (Skel_mc.run ~capacity:0 int_chain [ 1 ]))

let test_run_fold_matches_run () =
  let items = 500 in
  let inputs = List.init items Fun.id in
  let expected = Skel_mc.run int_chain inputs in
  let collect acc x = x :: acc in
  Alcotest.(check (list int)) "run_fold = run"
    expected
    (List.rev (Skel_mc.run_fold ~capacity:8 ~batch:16 int_chain ~items ~gen:Fun.id ~init:[] ~f:collect));
  Alcotest.(check int) "run_fold of zero items" 0
    (Skel_mc.run_fold int_chain ~items:0 ~gen:Fun.id ~init:0 ~f:( + ))

(* ----------------------------------------------------------------- Farm *)

let test_farm_matches_map =
  qtest "farm map = List.map at any worker count"
    QCheck2.Gen.(pair (list_size (int_range 0 100) int) (int_range 1 6))
    (fun (xs, workers) -> Farm_mc.map ~workers (fun x -> (x * 7) mod 1001) xs
                          = List.map (fun x -> (x * 7) mod 1001) xs)

let test_farm_empty_and_single () =
  Alcotest.(check (list int)) "empty" [] (Farm_mc.map ~workers:4 (fun x -> x) []);
  Alcotest.(check (list int)) "workers=1 computes inline" [ 2; 4 ]
    (Farm_mc.map ~workers:1 (fun x -> x * 2) [ 1; 2 ])

let test_farm_more_workers_than_items () =
  Alcotest.(check (list int)) "workers > items" [ 1; 4; 9 ]
    (Farm_mc.map ~workers:16 (fun x -> x * x) [ 1; 2; 3 ])

let test_farm_exception_propagates () =
  let boom = Failure "boom" in
  Alcotest.check_raises "worker exception re-raised" boom (fun () ->
      ignore (Farm_mc.map ~workers:3 (fun x -> if x = 50 then raise boom else x)
                (List.init 100 Fun.id)))

(* At 2 workers the caller runs one worker loop beside one spawned domain.
   Every item raises, so the caller's share raises too. The caller's item
   waits until the spawned domain is inside its own item, which lingers:
   a caller that re-raised before joining would find it still active. *)
let test_farm_caller_share_raises () =
  let boom = Failure "every item" in
  let caller = Domain.self () in
  let spawned_in = Atomic.make false and active = Atomic.make 0 in
  let spin_until stop =
    let t0 = Unix.gettimeofday () in
    while (not (stop ())) && Unix.gettimeofday () -. t0 < 1.0 do
      Domain.cpu_relax ()
    done
  in
  let f _ =
    Atomic.incr active;
    if Domain.self () = caller then spin_until (fun () -> Atomic.get spawned_in)
    else begin
      Atomic.set spawned_in true;
      Unix.sleepf 0.02
    end;
    Atomic.decr active;
    raise boom
  in
  Alcotest.check_raises "re-raised" boom (fun () ->
      ignore (Farm_mc.map ~workers:2 f (List.init 64 Fun.id)));
  Alcotest.(check int) "no item still running after the call" 0 (Atomic.get active)

let test_farm_invalid_workers () =
  Alcotest.check_raises "workers 0" (Invalid_argument "Farm_mc: workers must be positive")
    (fun () -> ignore (Farm_mc.map ~workers:0 Fun.id [ 1 ]))

(* ------------------------------------------------- failure paths (Domains) *)

(* The stage loop's close relay under real blocking: a pump parked on a
   full downstream ring (sender side) or an empty upstream ring (receiver
   side) must be woken by a [close] from another domain and pass the
   shutdown along the chain — upstream as {!Spsc.Closed}, downstream as a
   close after the last item — never left parked. Each test runs the pump
   on its own domain and joins it, so a lost wake-up hangs the suite
   instead of passing silently. (The ring-level wake-ups are pinned in
   test_util's spsc-domains suite.) *)

(* One item through the shipped chunk path; raises [Spsc.Closed] at once on
   a closed ring, which is how the tests observe a relayed close. *)
let push q x = Spsc.push_chunk q [| x |] ~pos:0 ~len:1

let closed q = match push q 0 with () -> false | exception Spsc.Closed -> true

let spawn_pump ?(batch = 1) f cin cout =
  Domain.spawn (fun () ->
      match Skel_mc.pump ~batch f cin cout with
      | () -> `Finished
      | exception Spsc.Closed -> `Raised_closed)

let test_pump_close_wakes_blocked_sender () =
  let cin = Spsc.create ~capacity:4 and cout = Spsc.create ~capacity:1 in
  List.iter (push cin) [ 1; 2; 3 ];
  (* The pump fills [cout] with the first item, then blocks pushing the
     second: nothing drains it. *)
  let pump = spawn_pump succ cin cout in
  Unix.sleepf 0.05;
  Spsc.close cout;
  Alcotest.(check bool) "blocked sender raises Closed" true (Domain.join pump = `Raised_closed);
  Alcotest.(check bool) "shutdown relayed upstream" true (closed cin)

let test_pump_close_wakes_blocked_receiver () =
  let cin : int Spsc.t = Spsc.create ~capacity:4 and cout = Spsc.create ~capacity:4 in
  let pump = spawn_pump succ cin cout in
  Unix.sleepf 0.05;
  Spsc.close cin;
  Alcotest.(check bool) "blocked receiver finishes" true (Domain.join pump = `Finished);
  Alcotest.(check bool) "close relayed downstream" true (closed cout);
  Alcotest.(check (option int)) "nothing left behind" None (Spsc.pop cout)

let test_pump_drain_after_close () =
  let cin = Spsc.create ~capacity:4 and cout = Spsc.create ~capacity:4 in
  List.iter (push cin) [ 1; 2; 3 ];
  Spsc.close cin;
  Alcotest.check_raises "send after close" Spsc.Closed (fun () -> push cin 4);
  let pump = spawn_pump ~batch:2 (fun x -> x * 10) cin cout in
  Alcotest.(check bool) "pump finishes" true (Domain.join pump = `Finished);
  Alcotest.(check bool) "close relayed after the last item" true (closed cout);
  Alcotest.(check (list (option int))) "queued elements drain FIFO, then None"
    [ Some 10; Some 20; Some 30; None ]
    (List.map (fun _ -> Spsc.pop cout) [ (); (); (); () ])

(* A raising stage function must surface as its exception from [run], not
   as a deadlock. Capacity 1 with many items makes the failure mode real:
   when the middle stage dies, the feeder and the upstream stage are
   blocked on full channels and only the close-on-failure path can wake
   them. *)
let test_pipeline_stage_exception_propagates () =
  let boom = Failure "stage-boom" in
  let open Pipe in
  let chain = (fun x -> x + 1) @> (fun x -> if x = 5 then raise boom else x) @> last (fun x -> x * 2) in
  Alcotest.check_raises "mid-chain stage failure re-raised" boom (fun () ->
      ignore (Skel_mc.run ~capacity:1 chain (List.init 200 Fun.id)))

let test_pipeline_first_stage_exception_propagates () =
  let boom = Failure "head-boom" in
  let open Pipe in
  let chain = (fun x -> if x = 0 then raise boom else x) @> last (fun x -> x + 1) in
  Alcotest.check_raises "first stage failure re-raised" boom (fun () ->
      ignore (Skel_mc.run ~capacity:1 chain (List.init 50 Fun.id)))

let test_pipeline_last_stage_exception_propagates () =
  let boom = Failure "tail-boom" in
  let open Pipe in
  let chain = (fun x -> x + 1) @> (fun x -> x * 3) @> last (fun x -> if x > 30 then raise boom else x) in
  Alcotest.check_raises "last stage failure re-raised" boom (fun () ->
      ignore (Skel_mc.run ~capacity:1 chain (List.init 100 Fun.id)))

(* The same failure modes with whole batches in flight: when a stage dies
   mid-chunk, its neighbours are parked on full/empty rings holding
   partially transferred chunks, and only the close-on-failure relay can
   wake them. The original exception must win over the [Spsc.Closed] the
   relaying neighbours raise — and nothing may deadlock or double-close. *)

let test_batched_mid_chain_exception () =
  let boom = Failure "batched-boom" in
  let open Pipe in
  let chain =
    (fun x -> x + 1) @> (fun x -> if x = 100 then raise boom else x) @> last (fun x -> x * 2)
  in
  List.iter
    (fun (capacity, batch) ->
      Alcotest.check_raises (Printf.sprintf "capacity=%d batch=%d" capacity batch) boom
        (fun () -> ignore (Skel_mc.run ~capacity ~batch chain (List.init 2000 Fun.id))))
    [ (1, 8); (2, 64); (8, 16); (4, 512) ]

let test_batched_first_stage_exception () =
  let boom = Failure "batched-head-boom" in
  let open Pipe in
  let chain = (fun x -> if x = 10 then raise boom else x) @> last (fun x -> x + 1) in
  Alcotest.check_raises "first stage, batch 32" boom (fun () ->
      ignore (Skel_mc.run ~capacity:2 ~batch:32 chain (List.init 1000 Fun.id)))

let test_batched_last_stage_exception () =
  let boom = Failure "batched-tail-boom" in
  let open Pipe in
  let chain =
    (fun x -> x + 1) @> (fun x -> x * 3) @> last (fun x -> if x > 300 then raise boom else x)
  in
  Alcotest.check_raises "last stage, batch 32" boom (fun () ->
      ignore (Skel_mc.run ~capacity:2 ~batch:32 chain (List.init 1000 Fun.id)))

let test_run_fold_exception_propagates () =
  let boom = Failure "fold-boom" in
  let open Pipe in
  let chain = (fun x -> if x = 500 then raise boom else x) @> last (fun x -> x + 1) in
  Alcotest.check_raises "run_fold failure re-raised" boom (fun () ->
      ignore (Skel_mc.run_fold ~capacity:4 ~batch:16 chain ~items:2000 ~gen:Fun.id ~init:0 ~f:( + )))

(* A raising generator runs on the feeder domain: it must close the first
   ring so the chain drains and shuts down, and surface from [run_fold]
   instead of leaving every stage and the caller parked. *)
let test_run_fold_gen_exception () =
  let boom = Failure "gen-boom" in
  let chain = Pipe.((fun x -> x + 1) @> last (fun x -> x * 2)) in
  let gen i = if i = 100 then raise boom else i in
  List.iter
    (fun batch ->
      Alcotest.check_raises (Printf.sprintf "gen failure re-raised, batch %d" batch) boom
        (fun () ->
          ignore (Skel_mc.run_fold ~capacity:4 ~batch chain ~items:1000 ~gen ~init:0 ~f:( + ))))
    [ 1; 2; 16 ]

(* A raising fold runs on the caller's domain: every domain of the run must
   still be joined before its exception surfaces. Sixty leaked runs of
   three domains each would pass the runtime's 128-domain limit, so a leak
   fails here as "failed to allocate domain". *)
let test_run_fold_f_exception_joins_domains () =
  let boom = Failure "f-boom" in
  let chain = Pipe.((fun x -> x + 1) @> last (fun x -> x * 2)) in
  let f acc y = if y > 40 then raise boom else acc + y in
  for _ = 1 to 60 do
    Alcotest.check_raises "fold failure re-raised" boom (fun () ->
        ignore (Skel_mc.run_fold ~capacity:4 ~batch:2 chain ~items:1000 ~gen:Fun.id ~init:0 ~f))
  done

(* --------------------------------------------------- cross-backend checks *)

let test_image_chain_backends_agree () =
  let rng = Aspipe_util.Rng.create 8 in
  let frames = List.init 4 (fun _ -> Aspipe_workload.Image.random rng ~width:48 ~height:48) in
  let chain = Aspipe_workload.Image.standard_chain ~blur_radius:2 in
  let digest images =
    List.fold_left (fun acc i -> acc +. Aspipe_workload.Image.checksum i) 0.0 images
  in
  let reference = digest (Skel_mc.run_seq chain frames) in
  Alcotest.(check (float 1e-6)) "pipeline backend" reference (digest (Skel_mc.run chain frames));
  Alcotest.(check (float 1e-6)) "fused backend" reference
    (digest (Skel_mc.run_grouped ~groups:[| 0; 0; 1; 1; 1 |] chain frames));
  Alcotest.(check (float 1e-6)) "farmed whole chain" reference
    (digest (Farm_mc.map ~workers:3 (Pipe.apply chain) frames))

let () =
  Alcotest.run "aspipe_mc"
    [
      ( "pipeline",
        [
          Alcotest.test_case "matches sequential" `Quick test_run_matches_seq;
          test_run_preserves_order;
          Alcotest.test_case "empty" `Quick test_run_empty;
          Alcotest.test_case "single item" `Quick test_run_single_item;
          Alcotest.test_case "capacity 1" `Quick test_run_capacity_one;
          Alcotest.test_case "grouped" `Quick test_run_grouped_matches;
          Alcotest.test_case "heterogeneous types" `Quick test_run_heterogeneous_types;
          Alcotest.test_case "float payloads" `Quick test_run_float_payloads;
          Alcotest.test_case "timed" `Quick test_run_timed_returns_outputs;
          Alcotest.test_case "single-stage pipe" `Quick test_single_stage_pipe;
          Alcotest.test_case "empty on every backend" `Quick test_empty_every_backend;
          Alcotest.test_case "one group, capacity 1" `Quick test_one_group_capacity_one_order;
          Alcotest.test_case "batch matrix" `Quick test_run_batch_matrix;
          Alcotest.test_case "batch exceeds items" `Quick test_run_batch_exceeds_items;
          Alcotest.test_case "invalid batch/capacity" `Quick test_run_invalid_batch;
          Alcotest.test_case "run_fold matches run" `Quick test_run_fold_matches_run;
        ] );
      ( "farm",
        [
          test_farm_matches_map;
          Alcotest.test_case "empty & single" `Quick test_farm_empty_and_single;
          Alcotest.test_case "more workers than items" `Quick test_farm_more_workers_than_items;
          Alcotest.test_case "exception propagates" `Quick test_farm_exception_propagates;
          Alcotest.test_case "caller share raises" `Quick test_farm_caller_share_raises;
          Alcotest.test_case "invalid workers" `Quick test_farm_invalid_workers;
        ] );
      ( "failure-paths",
        [
          Alcotest.test_case "close wakes blocked sender" `Quick test_pump_close_wakes_blocked_sender;
          Alcotest.test_case "close wakes blocked receiver" `Quick test_pump_close_wakes_blocked_receiver;
          Alcotest.test_case "drain after close" `Quick test_pump_drain_after_close;
          Alcotest.test_case "mid-chain stage exception" `Quick test_pipeline_stage_exception_propagates;
          Alcotest.test_case "first-stage exception" `Quick test_pipeline_first_stage_exception_propagates;
          Alcotest.test_case "last-stage exception" `Quick test_pipeline_last_stage_exception_propagates;
          Alcotest.test_case "batched mid-chain exception" `Quick test_batched_mid_chain_exception;
          Alcotest.test_case "batched first-stage exception" `Quick test_batched_first_stage_exception;
          Alcotest.test_case "batched last-stage exception" `Quick test_batched_last_stage_exception;
          Alcotest.test_case "run_fold exception" `Quick test_run_fold_exception_propagates;
          Alcotest.test_case "run_fold gen exception" `Quick test_run_fold_gen_exception;
          Alcotest.test_case "run_fold raising fold joins every domain" `Quick
            test_run_fold_f_exception_joins_domains;
        ] );
      ( "cross-backend",
        [ Alcotest.test_case "image chain agreement" `Slow test_image_chain_backends_agree ] );
    ]
