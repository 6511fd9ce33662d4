(** Priority queue of timestamped entries with O(log n) insert/pop and O(1)
    cancellation (lazy deletion), the core data structure of the event loop.

    Ties on the key are broken by insertion order, so the simulation is
    deterministic: two events scheduled for the same instant fire in the
    order they were scheduled.

    The heap stores keys in a flat [float array] (unboxed) with parallel
    payload arrays, so the hot pop/add path performs no allocation; only
    a cancellable {!insert} allocates its {!handle}. *)

type 'a t

type handle
(** A token identifying an inserted entry; used to cancel it. *)

val none : handle
(** A handle of no entry; cancelling it does nothing. *)

val create : unit -> 'a t

val insert : 'a t -> float -> 'a -> handle
(** [insert q key v] adds [v] with priority [key] (smaller pops first) and
    returns a handle that can cancel it. *)

val add : 'a t -> float -> 'a -> unit
(** [add q key v] is {!insert} for an entry nobody cancels: it takes the
    next tie-break number the same way and allocates no handle. *)

val reserve : 'a t -> int -> int
(** [reserve q n] takes the next [n] tie-break numbers, exactly as [n]
    calls of {!add} would, and returns the first. Entries inserted later
    tie-break after all of them. *)

val add_reserved : 'a t -> float -> seq:int -> 'a -> unit
(** [add_reserved q key ~seq v] adds [v] with a tie-break number taken by
    {!reserve}: it pops where an {!add} made at the reservation would
    have. Each reserved number is used at most once. *)

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
