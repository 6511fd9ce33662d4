(* Reference copy of the boxed generator that lib/util/rng replaced: the
   xoshiro256++ state in a record of four mutable [int64] fields, boxed on
   every store. Kept only so the differential tests can check the unboxed
   implementation against it bit for bit. *)

type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

(* splitmix64: used only to stretch a seed into the 256-bit xoshiro state. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  { s0; s1; s2; s3 }

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let bits64 t =
  let open Int64 in
  let result = add (rotl (add t.s0 t.s3) 23) t.s0 in
  let tmp = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t =
  (* Derive a child by seeding splitmix64 from the parent's next output;
     xoshiro outputs are equidistributed enough for stream separation. *)
  let state = ref (bits64 t) in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  { s0; s1; s2; s3 }

let float t =
  (* 53 high bits -> [0,1). *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. 0x1p-53

let range t lo hi = lo +. ((hi -. lo) *. float t)

(* A uniform int in [0, n) from the library generator, by rejection
   sampling (no modulo bias); the tests draw random shapes with it. *)
let below g n =
  if n <= 0 then invalid_arg "Rng_ref.below: bound must be positive";
  let n64 = Int64.of_int n in
  let rec draw () =
    let bits = Int64.shift_right_logical (Aspipe_util.Rng.bits64 g) 1 in
    let value = Int64.rem bits n64 in
    if Int64.sub bits value > Int64.sub Int64.max_int (Int64.sub n64 1L) then draw ()
    else Int64.to_int value
  in
  draw ()
