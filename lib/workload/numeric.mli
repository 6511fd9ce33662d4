(** A dense linear-algebra workload: small square matrices and the stage
    kernels (multiply, relax, scale) of an iterative numeric pipeline. *)

type t = { n : int; data : float array }
(** Row-major [n × n]. *)

(* lint: unused-export-ok test-only (ROADMAP "Test-only exports") *)
val create : int -> f:(row:int -> col:int -> float) -> t
val identity : int -> t (* lint: unused-export-ok test-only (ROADMAP "Test-only exports") *)
(* lint: unused-export-ok test-only (ROADMAP "Test-only exports") *)
val random : Aspipe_util.Rng.t -> int -> t
(* lint: unused-export-ok test-only (ROADMAP "Test-only exports") *)
val get : t -> row:int -> col:int -> float

(* lint: unused-export-ok test-only (ROADMAP "Test-only exports") *)
val multiply : t -> t -> t
(** Raises [Invalid_argument] on dimension mismatch. *)

val add : t -> t -> t (* lint: unused-export-ok test-only (ROADMAP "Test-only exports") *)
(* lint: unused-export-ok test-only (ROADMAP "Test-only exports") *)
val scale : float -> t -> t
val transpose : t -> t (* lint: unused-export-ok test-only (ROADMAP "Test-only exports") *)

(* lint: unused-export-ok test-only (ROADMAP "Test-only exports") *)
val jacobi_sweep : t -> t
(** One smoothing sweep: every interior entry becomes the mean of its four
    neighbours (borders kept) — a stand-in for a stencil stage. *)

(* lint: unused-export-ok test-only (ROADMAP "Test-only exports") *)
val frobenius : t -> float
(* lint: unused-export-ok test-only (ROADMAP "Test-only exports") *)
val max_abs_diff : t -> t -> float

(* lint: unused-export-ok test-only (ROADMAP "Test-only exports") *)
val refinement_chain : iterations:int -> (t, t) Aspipe_skel.Pipe.t
(** [iterations] Jacobi stages followed by normalization by the Frobenius
    norm — a numeric pipeline with naturally balanced stages. *)
