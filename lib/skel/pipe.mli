(** Typed pipelines of OCaml functions — the programming interface of the
    shared-memory backend. A [(‘a, ’b) t] transforms a stream of [’a] into a
    stream of [’b], one output per input ([Pipeline1for1]). *)

type ('a, 'b) t =
  | Last : ('a -> 'b) -> ('a, 'b) t
  | Stage : ('a -> 'c) * ('c, 'b) t -> ('a, 'b) t

val last : ('a -> 'b) -> ('a, 'b) t
(** A single-stage pipeline. *)

val ( @> ) : ('a -> 'c) -> ('c, 'b) t -> ('a, 'b) t
(** [f @> rest] prepends a stage: [f @> g @> last h]. *)

(* lint: unused-export-ok used by fuse_groups; test_workload checks it directly *)
val length : ('a, 'b) t -> int
(** Number of stages. *)

val apply : ('a, 'b) t -> 'a -> 'b
(** Run one item through sequentially — the reference semantics every
    parallel backend must agree with. *)

val fuse_groups : int array -> ('a, 'b) t -> ('a, 'b) t
(** [fuse_groups groups p] composes adjacent stages assigned to the same
    group into one, so the result has one stage per distinct group — the
    shared-memory analogue of mapping several pipeline stages onto one
    processor. [groups] must have length [length p] and be non-decreasing
    (stage colocations are contiguous); raises [Invalid_argument] otherwise. *)
