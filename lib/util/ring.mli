(** A growable FIFO ring buffer: O(1) push/pop at both ends with no
    per-element allocation, unlike [Queue] which allocates a cell per
    [push]. Used for the per-stage item queues on the simulator's hot
    path.

    The [dummy] element fills unused cells (and overwrites vacated ones,
    so popped elements are not retained); it is never returned. *)

type 'a t

val create : dummy:'a -> 'a t

val length : 'a t -> int
(** O(1). *)

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append at the back; amortised O(1). *)

val push_front : 'a t -> 'a -> unit
(** Prepend at the front (used to restore re-queued items in order). *)

val pop : 'a t -> 'a
(** Remove and return the front element; raises [Invalid_argument] when
    empty. *)

val iter : 'a t -> ('a -> unit) -> unit
(** Front-to-back iteration; the ring must not be mutated during it. *)

val clear : 'a t -> unit
(** Empty the ring, dropping references to all elements. *)
