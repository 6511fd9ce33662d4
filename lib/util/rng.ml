(* The xoshiro256++ state: four 64-bit words s0..s3, stored unboxed and
   little-endian at byte offsets 0, 8, 16 and 24 of a 32-byte buffer. A
   draw reads the four words into registers, steps them and writes them
   back, so it allocates nothing (a record of mutable [int64] fields would
   box every word it stores). *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

(* splitmix64's output function; the generator's state advances by
   [golden] before each output. Used only to stretch a seed into the
   256-bit xoshiro state. *)
let[@inline] mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* The four splitmix64 outputs that follow the splitmix state [x]. *)
let[@inline] of_splitmix x =
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    Bytes.set_int64_le t (8 * i) (mix (Int64.add x (Int64.mul (Int64.of_int (i + 1)) golden)))
  done;
  t

let create seed = of_splitmix (Int64.of_int seed)

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] bits64 t =
  let open Int64 in
  let s0 = Bytes.get_int64_le t 0 and s1 = Bytes.get_int64_le t 8 in
  let s2 = Bytes.get_int64_le t 16 and s3 = Bytes.get_int64_le t 24 in
  let result = add (rotl (add s0 s3) 23) s0 in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  Bytes.set_int64_le t 0 s0;
  Bytes.set_int64_le t 8 s1;
  Bytes.set_int64_le t 16 (logxor s2 tmp);
  Bytes.set_int64_le t 24 (rotl s3 45);
  result

(* Derive a child by seeding splitmix64 from the parent's next output;
   xoshiro outputs are equidistributed enough for stream separation. *)
let split t = of_splitmix (bits64 t)

let float t =
  (* 53 high bits -> [0,1). *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. 0x1p-53

let range t lo hi = lo +. ((hi -. lo) *. float t)
