(* The multicore campaign runner: fan the experiment registry out over a
   domain pool and reassemble the sequential report byte for byte.

   Each experiment becomes one pool task built from [Registry.job]: a pure
   closure that creates every bit of mutable state it needs (RNG, DES
   engine, event bus, metrics) inside itself and returns its complete
   output as bytes. Results are collected by registry index, so the printed
   campaign is identical whatever the interleaving — [--jobs 1] and
   [--jobs N] must and do produce the same bytes.

   While the pool is up, [Common.par_map] is pool-backed, so experiments
   that split their replications/sweep points fan those out over the same
   workers (the calling worker helps, so nesting cannot deadlock). Child
   output is re-emitted into the parent's capture buffer in index order.

   The runner watches itself through [Aspipe_obs]: per-domain utilisation
   gauges, task and cache counters, a per-experiment wall-clock histogram
   and a speedup gauge, all rendered in the campaign summary. *)

module Registry = Aspipe_exp.Registry
module Common = Aspipe_exp.Common
module Out = Aspipe_util.Out
module Metrics = Aspipe_obs.Metrics
module Prof = Aspipe_prof.Prof

type outcome = {
  id : string;
  title : string;
  output : string;
  elapsed : float;   (* seconds spent computing; 0 when served from cache *)
  cached : bool;
}

type report = {
  outcomes : outcome list;
  jobs : int;        (* requested *)
  workers : int;     (* actually used after the oversubscription cap *)
  wall_seconds : float;
  serial_seconds : float;
  speedup : float;
  cache_hits : int;
  utilisation : float array;
  snapshot : Metrics.snapshot;
}

let now () = Unix.gettimeofday ()

let select ?only () =
  match only with
  | None -> Registry.all
  | Some ids ->
      List.map
        (fun id ->
          match Registry.find id with
          | Some e -> e
          | None -> invalid_arg (Printf.sprintf "unknown experiment id: %s" id))
        ids

(* One experiment as a pool task: serve from the cache when the scenario +
   code-version key hits, otherwise run captured and store. *)
let task ~cache ~quick e () =
  (* [Pool.timed] excludes time spent helping other tasks during nested
     fan-out, so [elapsed] is this experiment's own compute and the serial
     sum (hence the speedup figure) stays honest under helping. *)
  let run_fresh () = Pool.timed (fun () -> Registry.job e ~quick ()) in
  match cache with
  | None ->
      let output, elapsed = run_fresh () in
      { id = e.Registry.id; title = e.Registry.title; output; elapsed; cached = false }
  | Some c -> (
      let key = Cache.key c ~id:e.Registry.id ~title:e.Registry.title ~quick in
      match Cache.find c key with
      | Some output ->
          { id = e.Registry.id; title = e.Registry.title; output; elapsed = 0.0; cached = true }
      | None ->
          let output, elapsed = run_fresh () in
          Cache.store c key output;
          { id = e.Registry.id; title = e.Registry.title; output; elapsed; cached = false })

let pool_par_map pool =
  {
    Common.pmap =
      (fun f xs ->
        (* Children run under their own capture; the parent re-emits their
           output in index order, so a printing replication body stays
           deterministic too. The re-emit loop is one of the contention
           suspects, so the profiler times it. *)
        let wrapped =
          Pool.map_list pool
            ~name:(fun i -> Printf.sprintf "sub%d" i)
            (fun x ->
              let buffer = Buffer.create 256 in
              let y = Out.with_buffer buffer (fun () -> f x) in
              (Buffer.contents buffer, y))
            xs
        in
        let t0 = if Prof.enabled () then Prof.now () else 0.0 in
        List.iter (fun (out, _) -> Out.print_string out) wrapped;
        if t0 > 0.0 && Prof.enabled () then
          Prof.record Prof.Out_flush ~label:"re-emit" ~t0 ~t1:(Prof.now ())
            ~a:(List.fold_left (fun acc (out, _) -> acc + String.length out) 0 wrapped)
            ~b:(List.length wrapped) ~words:0.0;
        List.map snd wrapped);
  }

let default_jobs () = Domain.recommended_domain_count ()

(* The inline (no-pool) path still records per-experiment task spans, so a
   [--jobs 1] profile is comparable with a pooled one. *)
let run_task_recorded ~label t =
  let probe = if Prof.enabled () then Some (Prof.now (), Gc.quick_stat ()) else None in
  let y = t () in
  (match probe with
  | Some (t0, g0) when Prof.enabled () ->
      let g1 = Gc.quick_stat () in
      Prof.record Prof.Task ~label ~t0 ~t1:(Prof.now ())
        ~a:(g1.Gc.minor_collections - g0.Gc.minor_collections)
        ~b:(g1.Gc.major_collections - g0.Gc.major_collections)
        ~words:(g1.Gc.minor_words -. g0.Gc.minor_words)
  | _ -> ());
  y

let run ?jobs ?(oversubscribe = false) ?cache_dir ?only ~quick () =
  let experiments = select ?only () in
  let jobs = max 1 (match jobs with Some j -> j | None -> default_jobs ()) in
  (* Adaptive worker count: domains beyond the core count only multiply
     stop-the-world GC barriers and scheduler churn (the measured 5x
     jobs-4 inversion on a single-core host), so the pool never
     oversubscribes the machine unless explicitly asked to. *)
  let workers = if oversubscribe then jobs else min jobs (Domain.recommended_domain_count ()) in
  let workers = max 1 workers in
  let cache = Option.bind cache_dir (fun dir -> Cache.open_ ~dir) in
  let ids = Array.of_list (List.map (fun e -> e.Registry.id) experiments) in
  let tasks = List.map (fun e -> task ~cache ~quick e) experiments in
  if Prof.enabled () then begin
    Prof.set_domain ~order:0 "main";
    Prof.record_gc ~label:"campaign start"
  end;
  let t0 = now () in
  let outcomes, pool_stats =
    if workers = 1 then
      ( List.mapi (fun i t -> run_task_recorded ~label:ids.(i) t) tasks,
        None )
    else begin
      let pool = Pool.create ~workers () in
      Common.set_par_map (pool_par_map pool);
      Fun.protect
        ~finally:(fun () ->
          Common.reset_par_map ();
          Pool.shutdown pool)
        (fun () ->
          let outcomes =
            Pool.map_list pool ~name:(fun i -> ids.(i)) (fun t -> t ()) tasks
          in
          (outcomes, Some (Pool.stats pool)))
    end
  in
  if Prof.enabled () then Prof.record_gc ~label:"campaign end";
  let wall_seconds = now () -. t0 in
  let serial_seconds = List.fold_left (fun acc o -> acc +. o.elapsed) 0.0 outcomes in
  let cache_hits = List.length (List.filter (fun o -> o.cached) outcomes) in
  let busy, executed =
    match pool_stats with
    | Some s -> (s.Pool.busy_seconds, s.Pool.tasks_executed)
    | None -> ([| serial_seconds |], [| List.length outcomes |])
  in
  let utilisation =
    Array.map (fun b -> if wall_seconds > 0.0 then Float.min 1.0 (b /. wall_seconds) else 0.0) busy
  in
  (* A fully-cached campaign has no compute to speed up. *)
  let speedup =
    if wall_seconds > 0.0 && serial_seconds > 0.0 then serial_seconds /. wall_seconds else 1.0
  in
  (* The runner's own telemetry, through the same registry everything else
     uses, so the campaign scheduler is observable like any component. *)
  let metrics = Metrics.create () in
  Metrics.Gauge.set (Metrics.Gauge.get metrics "runner.jobs") (Float.of_int jobs);
  Metrics.Gauge.set (Metrics.Gauge.get metrics "runner.workers") (Float.of_int workers);
  Metrics.Gauge.set (Metrics.Gauge.get metrics "runner.wall_seconds") wall_seconds;
  Metrics.Gauge.set (Metrics.Gauge.get metrics "runner.serial_seconds") serial_seconds;
  Metrics.Gauge.set (Metrics.Gauge.get metrics "runner.speedup") speedup;
  Metrics.Counter.add (Metrics.Counter.get metrics "runner.experiments") (List.length outcomes);
  Metrics.Counter.add (Metrics.Counter.get metrics "runner.cache_hits") cache_hits;
  Array.iteri
    (fun i u ->
      Metrics.Gauge.set
        (Metrics.Gauge.get metrics (Printf.sprintf "runner.domain%d.utilisation" i))
        u;
      Metrics.Counter.add
        (Metrics.Counter.get metrics (Printf.sprintf "runner.domain%d.tasks" i))
        executed.(i))
    utilisation;
  let histogram = Metrics.Histogram.get metrics "runner.experiment_seconds" in
  List.iter (fun o -> if not o.cached then Metrics.Histogram.observe histogram o.elapsed) outcomes;
  {
    outcomes;
    jobs;
    workers;
    wall_seconds;
    serial_seconds;
    speedup;
    cache_hits;
    utilisation;
    snapshot = Metrics.snapshot metrics;
  }

let print_outputs report =
  List.iter (fun o -> Out.print_string o.output) report.outcomes

let summary report =
  let buffer = Buffer.create 1024 in
  Buffer.add_string buffer "######## Campaign runner summary ########\n";
  Buffer.add_string buffer
    (Printf.sprintf
       "jobs %d | workers %d | %d experiment(s), %d cached | wall %.2f s, serial %.2f s, speedup %.2fx\n"
       report.jobs report.workers
       (List.length report.outcomes)
       report.cache_hits report.wall_seconds report.serial_seconds report.speedup);
  Array.iteri
    (fun i u -> Buffer.add_string buffer (Printf.sprintf "domain %d utilisation %5.1f%%\n" i (100.0 *. u)))
    report.utilisation;
  Buffer.add_string buffer (Metrics.render report.snapshot);
  Buffer.contents buffer

let print_summary report = Out.print_string (summary report)
