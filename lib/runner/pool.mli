(** A pool of OCaml 5 worker domains claiming tasks from one FIFO queue.

    Tasks are submitted in batches with {!map}, queued in index order, and
    claimed oldest first. Results are collected by input index, never by
    completion order, so a [map] is deterministic whenever [f] is
    (scheduling only affects wall-clock). A worker that reaches a nested
    [map] (replication splitting inside a campaign task) {e helps} — it
    executes the oldest queued tasks while its batch drains — so nested
    fan-out cannot deadlock the fixed-size pool. *)

type t

val create : workers:int -> unit -> t
(** Spawn [workers] domains. Raises [Invalid_argument] if [workers < 1].

    Each worker sizes its own minor heap to one megaword at bootstrap
    (OCaml 5's [Gc.set] is per-domain and does not propagate through
    [Domain.spawn]); minor collections are stop-the-world across all
    domains, so a larger per-worker arena stretches the interval between
    global barriers. *)

val map : ?name:(int -> string) -> t -> ('a -> 'b) -> 'a array -> 'b array
(** Fan the batch out over the pool and wait for all of it. The first
    exception any task raised is re-raised after the batch drains. Safe to
    call from inside a pool task (the calling worker helps). [name] labels
    task [i]'s profiler span; it is consulted only when {!Aspipe_prof} is
    recording. *)

val map_list : ?name:(int -> string) -> t -> ('a -> 'b) -> 'a list -> 'b list

val timed : (unit -> 'a) -> 'a * float
(** [timed f] is [f ()] and the seconds it took {e exclusive} of any pool
    tasks the calling worker helped execute inside it — the honest compute
    cost of [f] itself, on or off a pool. Re-raises what [f] raises. *)

val shutdown : t -> unit
(** Wake and join every worker. Call only once all [map]s have returned;
    tasks still queued are dropped. *)

type stats = {
  workers : int;
  busy_seconds : float array;   (** per-worker seconds spent executing *)
  tasks_executed : int array;
}

val stats : t -> stats
