module Rng = Aspipe_util.Rng
module Render = Aspipe_util.Render
module Pipe = Aspipe_skel.Pipe
module Skel_mc = Aspipe_skel.Skel_mc
module Farm_mc = Aspipe_skel.Farm_mc
module Mapping = Aspipe_model.Mapping
module Image = Aspipe_workload.Image

type point = { groups : int; seconds : float; speedup : float }

let frames ~quick =
  let rng = Rng.create 10 in
  let count = if quick then 8 else 24 in
  let side = if quick then 96 else 192 in
  List.init count (fun _ -> Image.random rng ~width:side ~height:side)

let checksum_all images =
  List.fold_left (fun acc img -> acc +. Image.checksum img) 0.0 images

(* Always sweep 1..5 groups: on a many-core host the curve shows speedup, on
   a constrained container it shows the coordination overhead instead; either
   way the measurement is honest and the outputs are verified. *)
let group_counts ~quick = if quick then [ 1; 2 ] else [ 1; 2; 3; 4; 5 ]

let pipeline_points ~quick =
  let chain = Image.standard_chain ~blur_radius:3 in
  let inputs = frames ~quick in
  let reference, seq_seconds = Skel_mc.run_seq_timed chain inputs in
  let reference_sum = checksum_all reference in
  List.map
    (fun groups ->
      let group_array = Mapping.to_array (Mapping.blocks ~stages:5 ~processors:groups) in
      let t0 = Unix.gettimeofday () in
      let outputs = Skel_mc.run_grouped ~groups:group_array chain inputs in
      let seconds = Unix.gettimeofday () -. t0 in
      let sum = checksum_all outputs in
      if Float.abs (sum -. reference_sum) > 1e-6 *. Float.max 1.0 (Float.abs reference_sum) then
        failwith "exp_mc: parallel pipeline output differs from sequential reference";
      { groups; seconds; speedup = seq_seconds /. seconds })
    (group_counts ~quick)

type farm_point = { workers : int; seconds : float; speedup : float }

let farm_points ~quick =
  let inputs = frames ~quick in
  let work img = Image.sobel (Image.gaussian_blur ~radius:3 img) in
  let reference, seq_seconds =
    let t0 = Unix.gettimeofday () in
    let r = List.map work inputs in
    (r, Unix.gettimeofday () -. t0)
  in
  let reference_sum = checksum_all reference in
  let worker_counts = if quick then [ 1; 2 ] else [ 1; 2; 4 ] in
  List.map
    (fun workers ->
      let t0 = Unix.gettimeofday () in
      let outputs = Farm_mc.map ~workers work inputs in
      let seconds = Unix.gettimeofday () -. t0 in
      if Float.abs (checksum_all outputs -. reference_sum)
         > 1e-6 *. Float.max 1.0 (Float.abs reference_sum)
      then failwith "exp_mc: farm output differs from sequential reference";
      { workers; seconds; speedup = seq_seconds /. seconds })
    worker_counts

(* A farm with more workers than cores times their contention, not the
   farm: its row says so. *)
let oversubscribed ~cores workers =
  if workers <= cores then ""
  else Printf.sprintf " oversubscribed: %d workers on %d cores" workers cores

let run_e10 ~quick =
  (* The speedups below mean nothing without the core count they ran on. *)
  let cores = Domain.recommended_domain_count () in
  Aspipe_util.Out.printf "E10 ran on %d cores (Domain.recommended_domain_count)\n" cores;
  let points = pipeline_points ~quick in
  Render.print_figure ~title:"E10: shared-memory pipeline speedup (image chain, 5 stages)"
    ~x_label:"domain groups" ~y_label:"speedup vs sequential"
    [
      Render.Series.make "pipeline"
        (Array.of_list (List.map (fun p -> (Float.of_int p.groups, p.speedup)) points));
    ];
  List.iter
    (fun p -> Aspipe_util.Out.printf "groups=%d: %.3f s (speedup %.2fx)\n" p.groups p.seconds p.speedup)
    points;
  let farm = farm_points ~quick in
  Render.print_figure ~title:"E10b: farm (stage replication) speedup"
    ~x_label:"workers" ~y_label:"speedup vs sequential"
    [
      Render.Series.make "farm"
        (Array.of_list (List.map (fun p -> (Float.of_int p.workers, p.speedup)) farm));
    ];
  List.iter
    (fun p ->
      Aspipe_util.Out.printf "workers=%d: %.3f s (speedup %.2fx)%s\n" p.workers p.seconds
        p.speedup (oversubscribed ~cores p.workers))
    farm;
  Aspipe_util.Out.newline ()
