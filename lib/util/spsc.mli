(** A lock-free single-producer/single-consumer ring FIFO with a close
    protocol and batched (chunked) transfer — the inter-stage channel of the
    shared-memory pipeline backend ({!Skel_mc}).

    Exactly one domain may push (the producer) and exactly one domain may
    pop (the consumer); {!close} may be called from any domain and is
    idempotent. Under that discipline every operation on the fast path is a
    handful of plain loads/stores plus one [Atomic.set] of the caller's own
    index — no locks, no CAS loops:

    - the producer owns [tail] (the next slot to write) and keeps a cached
      snapshot of [head], refreshed from the atomic only when the cache says
      the ring is full (FastFlow-style), so an uncontended push does not even
      read the consumer's cache line;
    - the consumer owns [head] (the next slot to read) and keeps the mirror
      snapshot of [tail].

    Slow path: a party that finds the ring full (producer) or empty
    (consumer) spins briefly, then parks on a mutex/condition pair. A
    [waiters] flag is raised before the final re-check of the indices, and
    the opposite side broadcasts after publishing whenever the flag is up,
    so wake-ups cannot be lost; the fast path pays only one atomic read of
    the flag.

    Shutdown: after [close], pushes raise {!Closed} and pops drain the
    remaining items then report exhaustion ([None] / chunk count 0). A
    producer that closes after its last push is guaranteed full drainage
    on the consumer side; a close racing a push from a third domain may
    lose that in-flight item, exactly like the failure-abort path it
    exists for.

    Storage: items are stored unboxed, in a plain ['a array], and the
    chunk operations move them through plain ['a array] windows, so no
    handoff allocates. A [float] ring's slots are a flat float array. The
    slots are allocated by the first push and filled with that push's item,
    because there is no other value of type ['a] to fill them with; the
    consumer resets every vacated slot to that same first item. Popped
    items are therefore not retained, except the first item ever pushed,
    which stays reachable until the ring itself is dropped.

    See DESIGN.md, "Multicore backend", for the memory-ordering argument. *)

type 'a t

exception Closed

val create : capacity:int -> 'a t
(** Ring with at least [capacity] slots (rounded up to a power of two),
    allocated by the first push. Raises [Invalid_argument] if
    [capacity <= 0]. *)

(* lint: unused-export-ok used by the chunk push; test_util checks it directly *)
val capacity : 'a t -> int
(** The actual (power-of-two) slot count. *)

val close : 'a t -> unit
(** Idempotent; callable from any domain. Wakes all parked parties. *)

(** {1 Producer side} — one domain only. *)

val push_chunk : 'a t -> 'a array -> pos:int -> len:int -> unit
(** Copy the window [src.(pos..pos+len-1)] into the ring, blocking for
    space as needed. Raises {!Closed} if the ring is closed before all
    [len] items are in (items already transferred stay transferred), and
    [Invalid_argument] if the window is not inside [src]. The caller keeps
    [src] and may refill it at once. *)

(** {1 Consumer side} — one domain only. *)

val pop : 'a t -> 'a option
(** Blocks while empty and open; [None] once closed and drained. *)

(* lint: unused-export-ok used by pop; test_util checks it directly *)
val try_pop : 'a t -> 'a option
(** Non-blocking; [None] when currently empty (even if open). *)

val pop_chunk : 'a t -> 'a array -> pos:int -> len:int -> int
(** Pop up to [len] items into the window [dst.(pos..pos+len-1)], blocking
    until at least one item is available or the ring is closed and
    drained; returns the count [n] popped, written to [dst.(pos..pos+n-1)]
    — [0] if and only if the ring is closed and empty ([len = 0] also
    returns 0 immediately). The rest of the window is left untouched.
    Raises [Invalid_argument] if the window is not inside [dst]. A consumer
    that has no ['a] to build [dst] from can take its first item with
    {!pop}. *)
