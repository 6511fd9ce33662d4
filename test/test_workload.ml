(* Tests for the workload library: synthetic stage families and the image
   filtering kernel. *)

module Rng = Aspipe_util.Rng
module Stage = Aspipe_skel.Stage
module Pipe = Aspipe_skel.Pipe
module Synthetic = Aspipe_workload.Synthetic
module Image = Aspipe_workload.Image

let check_float = Alcotest.(check (float 1e-9))
let check_close ?(eps = 1e-6) msg a b = Alcotest.(check (float eps)) msg a b

let total_work stages = Array.fold_left (fun acc s -> acc +. Stage.mean_work s) 0.0 stages

(* ------------------------------------------------------------ Synthetic *)

let test_synth_balanced () =
  let stages = Synthetic.balanced ~n:5 () in
  Alcotest.(check int) "count" 5 (Array.length stages);
  check_float "total work" 5.0 (total_work stages)

let test_synth_hot_stage () =
  let stages = Synthetic.hot_stage ~n:5 ~factor:4.0 () in
  check_float "middle stage is hot" 4.0 (Stage.mean_work stages.(2));
  check_float "others cold" 1.0 (Stage.mean_work stages.(0))

let test_synth_geometric_conserves_work () =
  let front = Synthetic.front_heavy ~n:6 () in
  check_close ~eps:1e-9 "front-heavy total preserved" 6.0 (total_work front);
  Alcotest.(check bool) "front heavier than back" true
    (Stage.mean_work front.(0) > Stage.mean_work front.(5));
  check_close ~eps:1e-9 "end ratio respected" 4.0
    (Stage.mean_work front.(0) /. Stage.mean_work front.(5))

let test_synth_noisy_mean () =
  let stages = Synthetic.noisy ~n:3 ~cv:0.5 () in
  Array.iter (fun s -> check_close ~eps:1e-9 "gamma mean preserved" 1.0 (Stage.mean_work s)) stages

(* ---------------------------------------------------------------- Image *)

let constant ~width ~height v = Image.create ~width ~height ~f:(fun ~x:_ ~y:_ -> v)

let same_dims (a : Image.t) (b : Image.t) = a.width = b.width && a.height = b.height

let mean (img : Image.t) =
  Array.fold_left ( +. ) 0.0 img.pixels /. Float.of_int (Array.length img.pixels)

let test_image_create_get () =
  let img = Image.create ~width:4 ~height:3 ~f:(fun ~x ~y -> Float.of_int ((y * 4) + x) /. 12.0) in
  check_float "interior pixel" (5.0 /. 12.0) (Image.get img ~x:1 ~y:1);
  check_float "clamped left" (Image.get img ~x:0 ~y:1) (Image.get img ~x:(-3) ~y:1);
  check_float "clamped bottom" (Image.get img ~x:2 ~y:2) (Image.get img ~x:2 ~y:99)

let test_image_blur_constant_fixpoint () =
  let img = constant ~width:16 ~height:16 0.7 in
  let blurred = Image.gaussian_blur ~radius:3 img in
  Alcotest.(check bool) "same dims" true (same_dims img blurred);
  check_close ~eps:1e-9 "constant image unchanged by blur" 0.7 (Image.get blurred ~x:8 ~y:8)

let test_image_blur_smooths () =
  let rng = Rng.create 4 in
  let img = Image.random rng ~width:32 ~height:32 in
  let blurred = Image.gaussian_blur ~radius:2 img in
  (* Blur preserves the mean (up to border effects) and reduces variance. *)
  check_close ~eps:0.05 "mean preserved" (mean img) (mean blurred);
  let variance image =
    let m = mean image in
    let acc = ref 0.0 in
    for y = 0 to 31 do
      for x = 0 to 31 do
        let d = Image.get image ~x ~y -. m in
        acc := !acc +. (d *. d)
      done
    done;
    !acc
  in
  Alcotest.(check bool) "variance reduced" true (variance blurred < 0.5 *. variance img)

let test_image_sobel_flat_is_zero () =
  let img = constant ~width:8 ~height:8 0.5 in
  let edges = Image.sobel img in
  check_float "no gradient on a flat image" 0.0 (Image.get edges ~x:4 ~y:4)

let test_image_sobel_detects_edge () =
  let img = Image.create ~width:16 ~height:16 ~f:(fun ~x ~y:_ -> if x < 8 then 0.0 else 1.0) in
  let edges = Image.sobel img in
  Alcotest.(check bool) "strong response at the edge" true (Image.get edges ~x:8 ~y:8 > 0.5);
  check_float "no response far from the edge" 0.0 (Image.get edges ~x:2 ~y:8)

let test_image_threshold_binary () =
  let rng = Rng.create 5 in
  let img = Image.random rng ~width:16 ~height:16 in
  let bw = Image.threshold ~level:0.5 img in
  Array.iter
    (fun p -> if p <> 0.0 && p <> 1.0 then Alcotest.fail "threshold output must be binary")
    bw.Image.pixels

let test_image_normalize_range () =
  let img = Image.create ~width:8 ~height:8 ~f:(fun ~x ~y -> 0.3 +. (0.001 *. Float.of_int (x + y))) in
  let n = Image.normalize img in
  let lo = Array.fold_left Float.min infinity n.Image.pixels in
  let hi = Array.fold_left Float.max neg_infinity n.Image.pixels in
  check_close ~eps:1e-9 "min stretched to 0" 0.0 lo;
  check_close ~eps:1e-9 "max stretched to 1" 1.0 hi;
  (* Flat images are left alone rather than divided by ~0. *)
  let flat = constant ~width:4 ~height:4 0.5 in
  check_float "flat unchanged" 0.5 (Image.get (Image.normalize flat) ~x:1 ~y:1)

let test_image_checksum_sensitivity () =
  let rng = Rng.create 7 in
  let a = Image.random rng ~width:8 ~height:8 in
  let b = Image.random rng ~width:8 ~height:8 in
  Alcotest.(check bool) "different images, different digests" true
    (Image.checksum a <> Image.checksum b);
  check_float "digest deterministic" (Image.checksum a) (Image.checksum a)

let test_image_standard_chain () =
  let rng = Rng.create 8 in
  let img = Image.random rng ~width:24 ~height:24 in
  let chain = Image.standard_chain ~blur_radius:2 in
  Alcotest.(check int) "five stages" 5 (Pipe.length chain);
  let out = Pipe.apply chain img in
  Alcotest.(check bool) "output dims preserved" true (same_dims img out);
  Array.iter
    (fun p -> if p <> 0.0 && p <> 1.0 then Alcotest.fail "chain ends with a binary image")
    out.Image.pixels

let test_image_validation () =
  Alcotest.check_raises "empty image" (Invalid_argument "Image.create: empty image") (fun () ->
      ignore (constant ~width:0 ~height:4 0.0));
  Alcotest.check_raises "blur radius" (Invalid_argument "Image.gaussian_blur: radius must be >= 1")
    (fun () -> ignore (Image.gaussian_blur ~radius:0 (constant ~width:2 ~height:2 0.0)))

let () =
  Alcotest.run "aspipe_workload"
    [
      ( "synthetic",
        [
          Alcotest.test_case "balanced" `Quick test_synth_balanced;
          Alcotest.test_case "hot stage" `Quick test_synth_hot_stage;
          Alcotest.test_case "geometric conserves work" `Quick test_synth_geometric_conserves_work;
          Alcotest.test_case "noisy mean" `Quick test_synth_noisy_mean;
        ] );
      ( "image",
        [
          Alcotest.test_case "create/get" `Quick test_image_create_get;
          Alcotest.test_case "blur fixpoint" `Quick test_image_blur_constant_fixpoint;
          Alcotest.test_case "blur smooths" `Quick test_image_blur_smooths;
          Alcotest.test_case "sobel flat" `Quick test_image_sobel_flat_is_zero;
          Alcotest.test_case "sobel edge" `Quick test_image_sobel_detects_edge;
          Alcotest.test_case "threshold binary" `Quick test_image_threshold_binary;
          Alcotest.test_case "normalize range" `Quick test_image_normalize_range;
          Alcotest.test_case "checksum" `Quick test_image_checksum_sensitivity;
          Alcotest.test_case "standard chain" `Quick test_image_standard_chain;
          Alcotest.test_case "validation" `Quick test_image_validation;
        ] );
    ]
