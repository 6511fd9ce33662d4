(** The shared-memory execution backend: one OCaml 5 domain per (possibly
    fused) pipeline stage, connected by lock-free SPSC ring FIFOs
    ({!Aspipe_util.Spsc}) with batched item transfer.

    This is the backend used by the real-speedup experiments: the same
    {!Pipe.t} program runs sequentially ({!run_seq}), with one domain per
    stage ({!run}), or with stages fused into processor groups
    ({!run_grouped}) — the shared-memory analogue of the grid mapping. *)

(* lint: unused-export-ok differential reference: test_diff and test_mc compare every backend with it *)
val run_seq : ('a, 'b) Pipe.t -> 'a list -> 'b list
(** Reference semantics, zero parallelism. *)

(* lint: unused-export-ok differential reference: test_diff compares Skel_sim with it; run_timed builds on it *)
val run : ?capacity:int -> ?batch:int -> ('a, 'b) Pipe.t -> 'a list -> 'b list
(** One domain per stage, plus a feeder. Output order equals input order.
    [capacity] bounds each inter-stage ring (default 8, rounded up to a
    power of two); [batch] (default 1) is the chunk size of every
    inter-stage transfer — larger batches amortise the two atomic index
    updates per handoff over many items. Raises [Invalid_argument] on a
    non-positive [capacity] or [batch]; any exception raised by a stage
    function is re-raised here after the chain shuts down. *)

val run_grouped : groups:int array -> ('a, 'b) Pipe.t -> 'a list -> 'b list
(** Fuses stages per {!Pipe.fuse_groups} first, then runs one domain per
    group with {!run}'s default capacity and batch. *)

val run_fold :
  ?capacity:int ->
  ?batch:int ->
  ('a, 'b) Pipe.t ->
  items:int ->
  gen:(int -> 'a) ->
  init:'c ->
  f:('c -> 'b -> 'c) ->
  'c
(** [run] without materializing either stream: feeds [gen 0 .. gen (items-1)]
    (each called once, in order, on the feeder domain) and folds the
    outputs in order on the caller's domain. The
    tens-of-millions-of-items benchmark path. An exception raised by [gen]
    or [f] is re-raised here after every domain of the run has been
    joined. *)

(* lint: unused-export-ok used by run_core; test_mc and test_perf check it directly *)
val pump : batch:int -> ('a -> 'b) -> 'a Aspipe_util.Spsc.t -> 'b Aspipe_util.Spsc.t -> unit
(** The per-stage loop: chunked pop → apply → chunked push, with the
    close/failure relay protocol. The first item is taken with
    {!Aspipe_util.Spsc.pop} and sizes the two plain chunk buffers, so a
    chunk allocates nothing beyond what [f] does. Exposed for the relay
    and allocation tests; not intended for direct use. *)

val run_timed : ('a, 'b) Pipe.t -> 'a list -> 'b list * float
(** {!run} with its defaults, plus elapsed seconds (monotonic clock). *)

val run_seq_timed : ('a, 'b) Pipe.t -> 'a list -> 'b list * float
