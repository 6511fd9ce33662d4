(** Deterministic, splittable pseudo-random number generation.

    The generator is xoshiro256++ seeded through splitmix64, which gives
    high-quality 64-bit streams with a tiny state. Every stochastic component
    of the simulator takes an explicit [Rng.t] so whole experiments are
    reproducible from a single integer seed, and [split] derives statistically
    independent child streams for concurrent components.

    Cost contract. A generator is one 32-byte [Bytes.t] holding the four
    64-bit xoshiro words unboxed, little-endian, [s0] to [s3] at offsets 0,
    8, 16 and 24. A draw reads them, steps them in registers and writes
    them back, so no draw allocates beyond the boxing of its [int64] or
    [float] result at a call that is not inlined. {!create} and {!split}
    allocate the new buffer and nothing else. *)

type t

val create : int -> t
(** [create seed] builds a generator from an integer seed. Equal seeds give
    equal streams. *)

val split : t -> t
(** [split t] advances [t] and returns a child generator whose stream is
    independent of the remainder of [t]'s stream. *)

val bits64 : t -> int64
(** [bits64 t] is the next raw 64-bit output. *)

val float : t -> float
(** [float t] is uniform in [\[0, 1)], with 53 bits of precision. *)

val range : t -> float -> float -> float
(** [range t lo hi] is uniform in [\[lo, hi)]. *)
