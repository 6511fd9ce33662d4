(** Priority queue of timestamped entries with O(log n) insert/pop and O(1)
    cancellation (lazy deletion), the core data structure of the event loop.

    Ties on the key are broken by insertion order, so the simulation is
    deterministic: two events scheduled for the same instant fire in the
    order they were scheduled.

    The heap stores keys in a flat [float array] (unboxed) with parallel
    payload arrays, so the hot pop/insert path performs no allocation
    beyond the returned {!handle}. *)

type 'a t

type handle
(** A token identifying an inserted entry; used to cancel it. *)

val create : unit -> 'a t

val insert : 'a t -> float -> 'a -> handle
(** [insert q key v] adds [v] with priority [key] (smaller pops first). *)

val cancel : handle -> unit
(** [cancel h] removes the entry lazily; idempotent. *)

val pop_min : 'a t -> horizon:float -> bool
(** [pop_min q ~horizon] pops the minimum live entry if its key is
    [<= horizon] and returns [true]; the popped entry is then readable
    through {!popped_key} and {!popped_value} until the next operation on
    [q]. Returns [false] (and pops nothing live) when the queue is empty or
    the next live key is past the horizon. Cancelled entries surfacing at
    the root are physically removed even when they lie beyond the horizon.
    Allocation-free. *)

val popped_key : 'a t -> float
(** Key of the entry removed by the last successful {!pop_min}. Unspecified
    if the last [pop_min] returned [false] or [q] was touched since. *)

val popped_value : 'a t -> 'a
(** Value of the entry removed by the last successful {!pop_min}; same
    validity window as {!popped_key}. *)
