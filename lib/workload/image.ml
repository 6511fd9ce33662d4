module Rng = Aspipe_util.Rng

type t = { width : int; height : int; pixels : float array }

let create ~width ~height ~f =
  if width <= 0 || height <= 0 then invalid_arg "Image.create: empty image";
  let pixels = Array.make (width * height) 0.0 in
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      pixels.((y * width) + x) <- f ~x ~y
    done
  done;
  { width; height; pixels }

let random rng ~width ~height = create ~width ~height ~f:(fun ~x:_ ~y:_ -> Rng.float rng)

let clamp_index v limit = if v < 0 then 0 else if v >= limit then limit - 1 else v

let get t ~x ~y =
  let x = clamp_index x t.width and y = clamp_index y t.height in
  t.pixels.((y * t.width) + x)

let map2i t ~f = create ~width:t.width ~height:t.height ~f

let gaussian_kernel radius =
  let sigma = Float.max 0.5 (Float.of_int radius /. 2.0) in
  let k = Array.init ((2 * radius) + 1) (fun i ->
      let d = Float.of_int (i - radius) in
      exp (-.(d *. d) /. (2.0 *. sigma *. sigma)))
  in
  let total = Array.fold_left ( +. ) 0.0 k in
  Array.map (fun v -> v /. total) k

let gaussian_blur ~radius t =
  if radius < 1 then invalid_arg "Image.gaussian_blur: radius must be >= 1";
  let kernel = gaussian_kernel radius in
  let horizontal =
    map2i t ~f:(fun ~x ~y ->
        let acc = ref 0.0 in
        Array.iteri (fun i w -> acc := !acc +. (w *. get t ~x:(x + i - radius) ~y)) kernel;
        !acc)
  in
  map2i horizontal ~f:(fun ~x ~y ->
      let acc = ref 0.0 in
      Array.iteri (fun i w -> acc := !acc +. (w *. get horizontal ~x ~y:(y + i - radius))) kernel;
      !acc)

let sobel t =
  map2i t ~f:(fun ~x ~y ->
      let p dx dy = get t ~x:(x + dx) ~y:(y + dy) in
      let gx =
        p (-1) (-1) +. (2.0 *. p (-1) 0) +. p (-1) 1 -. p 1 (-1) -. (2.0 *. p 1 0) -. p 1 1
      in
      let gy =
        p (-1) (-1) +. (2.0 *. p 0 (-1)) +. p 1 (-1) -. p (-1) 1 -. (2.0 *. p 0 1) -. p 1 1
      in
      Float.min 1.0 (sqrt ((gx *. gx) +. (gy *. gy))))

let sharpen t =
  map2i t ~f:(fun ~x ~y ->
      let center = get t ~x ~y in
      let cross =
        get t ~x:(x - 1) ~y +. get t ~x:(x + 1) ~y +. get t ~x ~y:(y - 1) +. get t ~x ~y:(y + 1)
      in
      Float.min 1.0 (Float.max 0.0 ((5.0 *. center) -. cross)))

let threshold ~level t =
  map2i t ~f:(fun ~x ~y -> if get t ~x ~y >= level then 1.0 else 0.0)

let normalize t =
  let lo = Array.fold_left Float.min infinity t.pixels in
  let hi = Array.fold_left Float.max neg_infinity t.pixels in
  if hi -. lo <= 1e-12 then t
  else map2i t ~f:(fun ~x ~y -> (get t ~x ~y -. lo) /. (hi -. lo))

let checksum t =
  (* Position-weighted sum, stable under recomputation, sensitive to order. *)
  let acc = ref 0.0 in
  Array.iteri (fun i p -> acc := !acc +. (p *. Float.of_int ((i mod 97) + 1))) t.pixels;
  !acc

let standard_chain ~blur_radius =
  let open Aspipe_skel.Pipe in
  gaussian_blur ~radius:blur_radius
  @> sharpen
  @> sobel
  @> normalize
  @> last (threshold ~level:0.25)
