(** The multicore campaign runner: the experiment registry fanned out over
    a {!Pool} of domains, reassembled in registry order.

    Determinism guarantee: every experiment runs as a self-contained
    {!Aspipe_exp.Registry.job} closure (own RNG, DES engine, bus, metrics),
    its output captured per run and flushed by registry index — so
    [--jobs 1] and [--jobs N] produce byte-identical campaign output.
    While the pool is live, {!Aspipe_exp.Common.par_map} is pool-backed, so
    experiments additionally split their replications/sweep points across
    the same workers. *)

type outcome = {
  id : string;
  title : string;
  output : string;   (** complete captured output, banner included *)
  elapsed : float;   (** compute seconds; 0 when served from the cache *)
  cached : bool;
}

type report = {
  outcomes : outcome list;     (** in registry order *)
  jobs : int;                  (** requested parallelism *)
  workers : int;               (** domains actually used after the cap *)
  wall_seconds : float;
  serial_seconds : float;      (** sum of per-experiment compute time *)
  speedup : float;             (** serial / wall *)
  cache_hits : int;
  utilisation : float array;   (** per-domain busy/wall, in [0,1] *)
  snapshot : Aspipe_obs.Metrics.snapshot;  (** the runner's own telemetry *)
}

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val run :
  ?jobs:int ->
  ?oversubscribe:bool ->
  ?cache_dir:string ->
  ?only:string list ->
  quick:bool ->
  unit ->
  report
(** Run the selected experiments ([only] defaults to the whole registry;
    unknown ids raise [Invalid_argument]). [jobs] defaults to
    {!default_jobs} and is an upper bound: the pool uses
    [min jobs (Domain.recommended_domain_count ())] workers — domains
    beyond the core count only multiply stop-the-world GC barriers —
    unless [oversubscribe] is set, which takes [jobs] literally. One
    worker runs inline with no pool (the sequential reference path; same
    bytes either way). [cache_dir] enables the content-addressed result
    cache. Nothing is printed — outputs ride in the report. With
    {!Aspipe_prof} enabled, the run records per-domain timelines. *)

val print_outputs : report -> unit
(** Emit every experiment's output, in registry order. *)

val print_summary : report -> unit
