(** The task-farm skeleton on shared memory: a pool of worker domains pulls
    independent tasks from a shared index and writes results in place, so the
    output order always matches the input order. Used to parallelize a hot
    pipeline stage (stage replication). *)

val map : workers:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~workers f xs] applies [f] to every element using [workers] domains,
    the calling domain among them: it spawns [min workers n - 1] and runs
    one worker loop itself (1 means: compute in the calling domain).
    Exceptions raised by [f] are re-raised in the caller after all workers
    stop. *)
