(** Work-stealing double-ended queue: the owner pushes/pops at the bottom
    (LIFO), thieves steal from the top (FIFO).

    Not synchronised — {!Pool} serialises all access under its scheduler
    lock (campaign tasks are coarse enough that lock cost is irrelevant). *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int

val push : 'a t -> 'a -> unit
(** Owner end: enqueue at the bottom. *)

val pop : 'a t -> 'a option
(** Owner end: newest element first (LIFO), [None] when empty. *)

val steal : 'a t -> 'a option
(** Thief end: oldest element first (FIFO), [None] when empty. *)
