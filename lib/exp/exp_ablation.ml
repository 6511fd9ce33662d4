module Stage = Aspipe_skel.Stage
module Skel_sim = Aspipe_skel.Skel_sim
module Variate = Aspipe_util.Variate
module Rng = Aspipe_util.Rng
module Render = Aspipe_util.Render
module Mapping = Aspipe_model.Mapping
module Costspec = Aspipe_model.Costspec
module Analytic = Aspipe_model.Analytic
module Ctmc = Aspipe_model.Ctmc
module Scenario = Aspipe_core.Scenario

(* ------------------------------------------------------------- buffers *)

type buffer_row = {
  capacity : int option;
  simulated : float;
  ctmc : float;
  analytic : float;
}

(* Bursty stages (lognormal, cv ≈ 1.8): buffers matter exactly when service
   times are irregular enough that a slow item would otherwise stall its
   neighbours. *)
let e13_stages () =
  Array.init 3 (fun i ->
      Stage.make
        ~name:(Printf.sprintf "e13s%d" i)
        ~output_bytes:1e4
        ~work:(Variate.Lognormal { mu = -0.72; sigma = 1.2 })
        ())

let buffer_rows ~quick =
  (* The workload realization is identical across rows (work draws are keyed
     on item identity), so a capacity can only improve on a smaller one;
     the sweep must come out monotone. Item count is NOT quick-scaled: the
     comparison is the experiment. *)
  ignore quick;
  let items = 600 in
  let stages = e13_stages () in
  let scenario =
    Scenario.make ~name:"e13"
      ~make_topo:(Common.uniform_grid ~n:3 ~latency:0.001 ())
      ~stages
      ~input:(Common.batch_input ~item_bytes:1e4 ~items ())
      ()
  in
  let mapping = [| 0; 1; 2 |] in
  let reference_topo = Scenario.build scenario ~rng:(Rng.create 90) in
  let spec =
    Costspec.of_topology ~topo:reference_topo ~stages ~input:scenario.Scenario.input ()
  in
  let m = Mapping.of_array ~processors:3 mapping in
  let ctmc = Ctmc.throughput (Ctmc.of_costspec spec m) in
  let analytic = Analytic.throughput spec m in
  List.map
    (fun capacity ->
      let topo = Scenario.build scenario ~rng:(Rng.create 91) in
      let trace =
        Skel_sim.execute ~rng:(Rng.create 92) ?queue_capacity:capacity ~topo ~stages ~mapping
          ~input:scenario.Scenario.input ()
      in
      (* Full-run throughput over the shared realization: items / makespan. *)
      let simulated = Float.of_int items /. Aspipe_grid.Trace.makespan trace in
      { capacity; simulated; ctmc; analytic })
    [ Some 1; Some 2; Some 4; Some 8; Some 16; None ]

(* -------------------------------------------------------------- solver *)

type solver_row = {
  stiffness : float;
  gauss_seidel_ms : float;
  power_ms : float;
  agree : bool;
}

let time_ms f =
  (* lint: wall-clock-ok E13 reports real CTMC solver wall-time *)
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (* lint: wall-clock-ok timing columns are labelled non-reproducible (see CI's drop_wallclock) *)
  (result, (Unix.gettimeofday () -. t0) *. 1000.0)

let solver_rows ~quick =
  let stiffness_levels = if quick then [ 1e1; 1e3 ] else [ 1e1; 1e2; 1e3; 1e4; 1e5 ] in
  List.map
    (fun stiffness ->
      (* 4 stages, unit service rates, moves faster by [stiffness]. *)
      let model =
        Ctmc.build ~service_rates:(Array.make 4 1.0) ~move_rates:(Array.make 5 stiffness)
      in
      let gs, gauss_seidel_ms =
        time_ms (fun () -> Ctmc.throughput ~solver:Ctmc.Gauss_seidel model)
      in
      let power_result, power_ms =
        time_ms (fun () ->
            try Some (Ctmc.throughput ~solver:Ctmc.Power ~max_iter:2_000_000 model)
            with Failure _ -> None)
      in
      match power_result with
      | Some p ->
          { stiffness; gauss_seidel_ms; power_ms; agree = Float.abs (p -. gs) < 1e-6 *. gs }
      | None -> { stiffness; gauss_seidel_ms; power_ms = nan; agree = false })
    stiffness_levels

let run_e13 ~quick =
  let rows = buffer_rows ~quick in
  let table =
    Render.Table.create
      ~title:
        "E13a: buffer-capacity ablation, 3 bursty stages spread over 3 nodes (items/s over a shared realization)"
      ~columns:[ "buffer capacity"; "simulated"; "vs ctmc"; "vs analytic" ]
  in
  List.iter
    (fun r ->
      Render.Table.add_row table
        [
          (match r.capacity with Some c -> string_of_int c | None -> "unbounded");
          Printf.sprintf "%.3f" r.simulated;
          Printf.sprintf "%.3f" (r.simulated /. r.ctmc);
          Printf.sprintf "%.3f" (r.simulated /. r.analytic);
        ])
    rows;
  Render.Table.print table;
  (match rows with
  | first :: _ ->
      let last = List.nth rows (List.length rows - 1) in
      Aspipe_util.Out.printf
        "reference evaluators: ctmc %.3f (bufferless), analytic %.3f (saturation bound)\n\
         capacity 1 sits at %.0f%% of ctmc; unbounded reaches %.0f%% of analytic\n\n"
        first.ctmc first.analytic
        (100.0 *. first.simulated /. first.ctmc)
        (100.0 *. last.simulated /. last.analytic)
  | [] -> ());
  let solver_table =
    Render.Table.create ~title:"E13b: CTMC solver ablation (4 stages, 81 states)"
      ~columns:[ "stiffness (max/min rate)"; "gauss-seidel (ms)"; "power (ms)"; "agree" ]
  in
  List.iter
    (fun r ->
      Render.Table.add_row solver_table
        [
          Printf.sprintf "%.0e" r.stiffness;
          Printf.sprintf "%.2f" r.gauss_seidel_ms;
          (if Float.is_nan r.power_ms then "diverged/timeout" else Printf.sprintf "%.2f" r.power_ms);
          string_of_bool r.agree;
        ])
    (solver_rows ~quick);
  Render.Table.print solver_table;
  Aspipe_util.Out.newline ()
