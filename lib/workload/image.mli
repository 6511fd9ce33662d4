(** A real image-filtering workload for the shared-memory backend: grayscale
    float images and the classic filter chain (blur → sobel → threshold …)
    that grid pipeline papers use as their motivating application. All
    operations are pure — each returns a fresh image — so stages compose
    freely across domains. *)

type t = { width : int; height : int; pixels : float array }
(** Row-major grayscale, values in [\[0, 1\]]. *)

(* lint: unused-export-ok used by random and the filters; test_workload checks it directly *)
val create : width:int -> height:int -> f:(x:int -> y:int -> float) -> t
val random : Aspipe_util.Rng.t -> width:int -> height:int -> t
(* lint: unused-export-ok used by the filters; test_workload checks it directly *)
val get : t -> x:int -> y:int -> float
(** Coordinates are clamped to the border (replicate padding). *)

val gaussian_blur : radius:int -> t -> t
(** Separable Gaussian with σ = radius/2 (radius ≥ 1). *)

val sobel : t -> t
(** Gradient magnitude, clamped to [\[0, 1\]]. *)

val sharpen : t -> t
(** 3×3 unsharp kernel. *)

val threshold : level:float -> t -> t
val normalize : t -> t
(** Linear stretch to full range (identity on flat images). *)

val checksum : t -> float
(** Order-stable digest used by tests to compare backend outputs. *)

val standard_chain : blur_radius:int -> (t, t) Aspipe_skel.Pipe.t
(** The 5-stage reference pipeline: blur → sharpen → sobel → normalize →
    threshold 0.25. *)
