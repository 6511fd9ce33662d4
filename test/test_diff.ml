(* Differential tests between the two pipeline backends: the DES-based
   Skel_sim (virtual time on a simulated grid) and the Domains-based
   Skel_mc (real shared-memory parallelism).

   The backends model the same skeleton, so on any pipeline shape they
   must agree on the stream invariants: every stage services every item
   exactly once, and the output stream preserves input order. The
   simulator is additionally checked for completion ordering in virtual
   time; the multicore backend for agreement with the pure reference
   [Pipe.apply]. *)

module Engine = Aspipe_des.Engine
module Topology = Aspipe_grid.Topology
module Trace = Aspipe_grid.Trace
module Stage = Aspipe_skel.Stage
module Stream_spec = Aspipe_skel.Stream_spec
module Skel_sim = Aspipe_skel.Skel_sim
module Skel_mc = Aspipe_skel.Skel_mc
module Pipe = Aspipe_skel.Pipe
module Rng = Aspipe_util.Rng

let qtest ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* One pipeline shape, drawn small enough that the whole grid of cases
   stays fast: [stages] pipeline stages over [nodes] uniform nodes with a
   round-robin mapping, [items] inputs, [capacity] bounding both the DES
   stage queues and the Domains channels. *)
type shape = { stages : int; nodes : int; items : int; capacity : int; batch : int }

let shape_gen =
  QCheck2.Gen.(
    map
      (fun ((stages, nodes), (items, capacity), batch) ->
        { stages; nodes; items; capacity; batch })
      (triple
         (pair (int_range 1 4) (int_range 1 3))
         (pair (int_range 1 30) (int_range 1 6))
         (int_range 1 8)))

let pp_shape s =
  Printf.sprintf "{stages=%d; nodes=%d; items=%d; capacity=%d; batch=%d}" s.stages s.nodes s.items
    s.capacity s.batch

(* --------------------------------------------------- DES side of the diff *)

let run_sim shape =
  let engine = Engine.create () in
  let topo =
    Topology.uniform engine ~n:shape.nodes ~speed:10.0 ~latency:1e-4 ~bandwidth:1e9 ()
  in
  let stages = Stage.balanced ~n:shape.stages ~work:0.1 () in
  let mapping = Array.init shape.stages (fun i -> i mod shape.nodes) in
  let input = Stream_spec.make ~items:shape.items ~item_bytes:10.0 () in
  (* Subscribed, not passed to the simulator: the visit counts read every
     service record, which only the full stream carries. *)
  let trace = Trace.create () in
  Trace.subscribe trace (Engine.bus engine);
  let sim =
    Skel_sim.create ~rng:(Rng.create 5) ~queue_capacity:shape.capacity ~topo ~stages ~mapping
      ~input ()
  in
  Skel_sim.run_to_completion sim;
  trace

(* Per-stage service counts from a trace. *)
let sim_visits trace ~stages =
  Array.init stages (fun stage -> Array.length (Trace.service_times trace ~stage))

(* ----------------------------------------------- Domains side of the diff *)

(* A chain of [stages] counting stages: stage s increments its own visit
   counter and tags the item, so the outputs also witness that every item
   passed through every stage in order. *)
let run_mc shape =
  let visits = Array.init shape.stages (fun _ -> Atomic.make 0) in
  let stage s x =
    Atomic.incr visits.(s);
    (x * 10) + s
  in
  let rec chain s =
    if s = shape.stages - 1 then Pipe.last (stage s) else Pipe.Stage (stage s, chain (s + 1))
  in
  let pipe = chain 0 in
  let inputs = List.init shape.items Fun.id in
  let outputs = Skel_mc.run ~capacity:shape.capacity ~batch:shape.batch pipe inputs in
  (* Snapshot the counters before the reference run — [Pipe.apply] walks
     the same counting stages. *)
  let counts = Array.map Atomic.get visits in
  (counts, outputs, List.map (Pipe.apply pipe) inputs)

(* ------------------------------------------------------------ properties *)

let prop_stage_visits_agree shape =
  let trace = run_sim shape in
  let sim = sim_visits trace ~stages:shape.stages in
  let mc, _, _ = run_mc shape in
  let expected = Array.make shape.stages shape.items in
  if sim <> expected then
    QCheck2.Test.fail_reportf "%s: DES visits %s, expected every stage to serve all items"
      (pp_shape shape)
      (String.concat "," (List.map string_of_int (Array.to_list sim)));
  if mc <> expected then
    QCheck2.Test.fail_reportf "%s: Domains visits %s, expected every stage to serve all items"
      (pp_shape shape)
      (String.concat "," (List.map string_of_int (Array.to_list mc)));
  true

let prop_output_order_agrees shape =
  (* DES: completions leave in item order (an in-order pipeline preserves
     the stream). Domains: outputs equal the pure reference in input
     order. Together: both backends present the same stream to the
     consumer. *)
  let trace = run_sim shape in
  let completion_ids = Array.to_list (Array.map fst (Trace.completions trace)) in
  let _, outputs, reference = run_mc shape in
  completion_ids = List.init shape.items Fun.id && outputs = reference

let prop_sim_completions_monotone shape =
  let trace = run_sim shape in
  let times = Array.map snd (Trace.completions trace) in
  Array.length times = shape.items
  && (let ok = ref true in
      Array.iteri (fun i t -> if i > 0 && t < times.(i - 1) then ok := false) times;
      !ok)

let test_visits = qtest "every stage serves every item on both backends" shape_gen prop_stage_visits_agree
let test_order = qtest "output ordering agrees across backends" shape_gen prop_output_order_agrees
let test_monotone =
  qtest ~count:30 "DES completion times are monotone" shape_gen prop_sim_completions_monotone

(* A pinned corner grid on top of the random sweep: the degenerate shapes
   (single stage, single item, capacity 1, more stages than nodes) checked
   exhaustively so a regression names the exact shape. *)
let test_corner_grid () =
  List.iter
    (fun shape ->
      Alcotest.(check bool) (pp_shape shape ^ " visits") true (prop_stage_visits_agree shape);
      Alcotest.(check bool) (pp_shape shape ^ " order") true (prop_output_order_agrees shape))
    [
      { stages = 1; nodes = 1; items = 1; capacity = 1; batch = 1 };
      { stages = 1; nodes = 3; items = 10; capacity = 1; batch = 4 };
      { stages = 4; nodes = 1; items = 10; capacity = 1; batch = 64 };
      { stages = 4; nodes = 2; items = 25; capacity = 2; batch = 8 };
      { stages = 3; nodes = 3; items = 12; capacity = 6; batch = 2 };
    ]

(* -------------------------------------------------- large-stream battery *)

(* The SPSC backend at real stream length: 10^5 items through every
   (stages × batch × capacity) corner the benchmark sweeps, each output
   list compared for structural equality against the sequential reference
   and every stage's visit counter checked for exactly-once service. This
   is the scale where a lost wake-up, a dropped chunk tail or an index-wrap
   bug actually manifests — the small random shapes above cannot reach
   wrap-around at capacity 64. *)
let test_large_stream_grid () =
  let items = 100_000 in
  List.iter
    (fun stages ->
      List.iter
        (fun batch ->
          List.iter
            (fun capacity ->
              let visits = Array.init stages (fun _ -> Atomic.make 0) in
              let stage s x =
                Atomic.incr visits.(s);
                (x * 7) + s
              in
              let rec chain s =
                if s = stages - 1 then Pipe.last (stage s) else Pipe.Stage (stage s, chain (s + 1))
              in
              let pipe = chain 0 in
              let inputs = List.init items Fun.id in
              let outputs = Skel_mc.run ~capacity ~batch pipe inputs in
              (* Snapshot before the reference run walks the same counters. *)
              let counts = Array.map Atomic.get visits in
              let label =
                Printf.sprintf "stages=%d batch=%d capacity=%d items=%d" stages batch capacity
                  items
              in
              let reference = Skel_mc.run_seq pipe inputs in
              if outputs <> reference then Alcotest.failf "%s: outputs diverge from run_seq" label;
              Array.iteri
                (fun s c ->
                  if c <> items then
                    Alcotest.failf "%s: stage %d served %d times, expected %d" label s c items)
                counts)
            [ 1; 64 ])
        [ 1; 8; 64 ])
    [ 2; 4 ]

(* One full-length differential against the simulator: at 10^5 items both
   backends must still agree that every stage serves every item and that
   the stream leaves in input order. *)
let test_large_sim_vs_mc () =
  let shape = { stages = 4; nodes = 2; items = 100_000; capacity = 64; batch = 16 } in
  Alcotest.(check bool) (pp_shape shape ^ " visits") true (prop_stage_visits_agree shape);
  Alcotest.(check bool) (pp_shape shape ^ " order") true (prop_output_order_agrees shape)

let () =
  Alcotest.run "aspipe_diff"
    [
      ( "sim-vs-mc",
        [
          test_visits;
          test_order;
          test_monotone;
          Alcotest.test_case "corner grid" `Quick test_corner_grid;
          Alcotest.test_case "large stream grid" `Slow test_large_stream_grid;
          Alcotest.test_case "large sim-vs-mc" `Slow test_large_sim_vs_mc;
        ] );
    ]
