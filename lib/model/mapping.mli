(** Stage→processor assignments.

    A mapping for an [Ns]-stage pipeline over [Np] processors is an array of
    length [Ns] whose [i]-th entry names the processor hosting stage [i].
    Written [(p₀,p₁,…)] as in the skeleton-scheduling literature — e.g.
    [(0,0,1)] runs the first two stages on processor 0 and the third on
    processor 1. *)

type t = private int array

val of_array : processors:int -> int array -> t
(** Validates every entry lies in [\[0, processors)]. *)

val to_array : t -> int array
val stages : t -> int
val processor_of : t -> int -> int
val equal : t -> t -> bool
val to_string : t -> string

val round_robin : stages:int -> processors:int -> t
(** Stage [i] on processor [i mod processors]. *)

val blocks : stages:int -> processors:int -> t
(** Contiguous blocks: stages split as evenly as possible into [processors]
    consecutive groups — the classic static block mapping baseline. *)

val max_enumeration : int
(** Hard cap on the enumerable assignment space, [2^22]. *)

val space_within : stages:int -> processors:int -> cap:int -> int option
(** [processors ^ stages] as [Some n] when it does not exceed [cap], [None]
    otherwise — exact integer arithmetic, never overflows. Replaces the old
    float-based sizing ([Float.of_int p ** Float.of_int s] through
    [int_of_float]) that could misround near the cap. [stages = 0] yields
    [Some 1]. *)

val space_size : stages:int -> processors:int -> int option
(** [space_within ~cap:max_int]: the exact space size, or [None] when it does
    not fit in an [int]. *)

val enumerate : ?fix_first_on:int -> stages:int -> processors:int -> unit -> t list
(** Every assignment ([processors]^[stages] of them, or a factor fewer with
    [fix_first_on] pinning stage 0, as the paper's tables do), in ascending
    {e enumeration-code} order (see {!decode}).
    Raises [Invalid_argument] if the space exceeds {!max_enumeration}. *)

val iter_enumerate :
  ?fix_first_on:int -> stages:int -> processors:int -> (t -> unit) -> unit
(** Zero-materialization {!enumerate}: drives a single scratch array through
    the space odometer-style and passes it to the callback once per
    assignment, in the same ascending-code order as {!enumerate}. The array
    is reused between calls — the callback must not retain it (copy via
    {!to_array} if needed). Raises like {!enumerate}. *)

val decode : ?fix_first_on:int -> stages:int -> processors:int -> int -> t
(** The mapping at position [code] in enumeration order: free stages are the
    little-endian base-[processors] digits of [code], stage 0 pinned when
    [fix_first_on] is given. Raises [Invalid_argument] when [code] is outside
    [\[0, space)]. *)

val code_of : ?fix_first_on:int -> processors:int -> t -> int
(** Inverse of {!decode} (the pinned stage, when any, contributes nothing). *)

(* lint: unused-export-ok differential reference: test_model checks iter_neighbours against it *)
val neighbours : t -> processors:int -> t list
(** All mappings differing in exactly one stage's processor. *)

val iter_neighbours :
  t -> processors:int -> (stage:int -> target:int -> t -> unit) -> unit
(** Zero-copy {!neighbours}: the callback sees each neighbour in the same
    order (stage ascending, then target processor ascending) through one
    in-place scratch array, restored between stages. Scratch-reuse caveats as
    {!iter_enumerate}. *)

val stages_sharing : t -> int -> int
(** [stages_sharing m i] is the number of stages (≥ 1) on stage [i]'s
    processor, including stage [i]. *)
