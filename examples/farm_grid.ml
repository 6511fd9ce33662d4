(* Stage replication on the grid: a task farm over heterogeneous workers,
   run as a one-stage replicated pipeline. Shows (a) why a round-robin deal
   should not include every node it can reach, and (b) the adaptive farm
   evicting a worker whose availability collapses mid-run, then finishing
   close to the clairvoyant schedule.

     dune exec examples/farm_grid.exe *)

module Stage = Aspipe_skel.Stage
module Stream_spec = Aspipe_skel.Stream_spec
module Repl_sim = Aspipe_skel.Repl_sim
module Loadgen = Aspipe_grid.Loadgen
module Costspec = Aspipe_model.Costspec
module Repl_model = Aspipe_model.Repl_model
module Scenario = Aspipe_core.Scenario
module Adaptive_repl = Aspipe_core.Adaptive_repl

let speeds = [| 14.0; 12.0; 10.0; 10.0; 8.0; 6.0 |]

let task =
  Stage.make ~name:"render" ~output_bytes:1e4 ~state_bytes:0.0
    ~work:(Aspipe_util.Variate.Constant 1.0) ()

let () =
  (* The dynamic question below: worker 1 collapses at t = 20 s. *)
  let scenario =
    Scenario.make ~name:"farm-demo"
      ~make_topo:(fun engine ->
        Aspipe_grid.Topology.heterogeneous engine ~speeds ~latency:0.01 ~bandwidth:1e7 ())
      ~loads:[ (1, Loadgen.Step { at = 20.0; level = 0.1 }) ]
      ~stages:[| task |]
      ~input:(Stream_spec.make ~arrival:(Stream_spec.Spaced 0.05) ~items:1200 ~item_bytes:1e4 ())
      ~horizon:1e4 ()
  in
  (* The model's view of the static question, at t = 0: who belongs in the
     deal? *)
  let spec =
    Costspec.of_topology
      ~topo:(Scenario.build scenario ~rng:(Aspipe_util.Rng.create 0))
      ~stages:[| task |] ~input:scenario.Scenario.input ()
  in
  let all = [| List.init (Array.length speeds) Fun.id |] in
  let best, predicted = Repl_model.best_round_robin spec in
  Printf.printf "round-robin over all 6 workers: %.1f items/s (slowest member binds)\n"
    (Repl_model.throughput ~dispatch:Repl_sim.Round_robin spec ~replicas:all);
  Printf.printf "model-best deal {%s}: %.1f items/s\n"
    (String.concat "," (List.map string_of_int best))
    predicted;
  Printf.printf "least-loaded over all 6: %.1f items/s (capacity sum)\n\n"
    (Repl_model.throughput ~dispatch:Repl_sim.Least_loaded spec ~replicas:all);

  let round_robin = { Adaptive_repl.default_config with dispatch = Repl_sim.Round_robin } in
  let static =
    Adaptive_repl.run ~config:{ round_robin with adapt = false } ~scenario ~seed:6 ()
  in
  let adaptive = Adaptive_repl.run ~config:round_robin ~scenario ~seed:6 () in
  Format.printf "static:   %a@." Adaptive_repl.pp_report static;
  Format.printf "adaptive: %a@." Adaptive_repl.pp_report adaptive;
  List.iter
    (fun (t, sets) ->
      Printf.printf "  at t=%.1f s the deal became {%s}\n" t
        (String.concat "," (List.map string_of_int sets.(0))))
    adaptive.Adaptive_repl.history
