(* A pool of worker domains claiming tasks from one FIFO queue.

   Submission enqueues a batch in index order, and every claim takes the
   oldest queued task, whether a worker or a helping awaiter makes it. One
   mutex serialises the scheduler state (queue, counters, shutdown flag) —
   campaign tasks are whole experiments or replication chunks, coarse
   enough that a scheduler lock costs nothing measurable.

   Wakeup discipline: sleepers wait for one of three predicates — claimable
   work exists (workers, helpers), a batch drained (helpers, external
   awaiters), or shutdown. Each predicate only becomes true at a push, at a
   batch's last completion, or at shutdown, so those are the only three
   broadcast sites. Broadcasting on *every* completion (the previous
   scheme) made each task wake every sleeper only to find nothing
   claimable — pure scheduler churn, and measurable once domains
   outnumber cores.

   Worker domains also size their own minor heaps at bootstrap: OCaml 5's
   minor collector is stop-the-world across all domains, and [Gc.set] in
   the spawning domain does not propagate, so each worker raises
   [minor_heap_size] itself to stretch the interval between global minor
   barriers (profiling showed those barriers dominating oversubscribed
   runs).

   Waiting is *helping*: a worker that blocks on a nested [map] (an
   experiment splitting its replications from inside a pool task) executes
   other queued tasks while its batch drains, so nested fan-out can never
   deadlock the fixed-size pool. Results are always collected by input
   index, never by completion order — determinism never depends on the
   scheduling interleaving.

   When [Aspipe_prof] is enabled the pool records task spans (with per-task
   GC deltas), idle/await sleeps and queue-depth samples on the executing
   domain's timeline; every probe sits behind [Prof.enabled ()] (lint R7),
   so a profiler-off run pays one atomic load per probe site and allocates
   nothing. *)

module Prof = Aspipe_prof.Prof

type batch = {
  mutable remaining : int;          (* tasks of this map call not yet finished *)
  mutable failure : exn option;     (* first exception raised by a task *)
}

type task = { run : unit -> unit; label : string; batch : batch }

type t = {
  workers : int;
  queue : task Queue.t;             (* tasks submitted and not yet claimed *)
  mutex : Mutex.t;
  wake : Condition.t;
  mutable shutdown : bool;
  mutable domains : unit Domain.t list;
  busy : float array;               (* per-worker seconds spent executing *)
  executed : int array;             (* per-worker tasks run *)
}

(* Which pool worker (if any) the current domain is: workers help execute
   other tasks while waiting on a nested batch; external callers just
   sleep. *)
let worker_index : int option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* Monotonic seconds — busy accounting measures durations, never dates. *)
let now () = Prof.now ()

(* Exclusive-time accounting. Helping means a worker's clock can tick
   inside another task's timer, so naive span timing double-counts: the
   helped task's seconds land both in its own measurement and in the
   timer it interrupted, and "speedup" can exceed the worker count. Each
   in-flight timer owns a frame accumulating the time nested foreign
   tasks consumed; subtracting it makes per-worker busy counters and
   {!timed} spans *exclusive*, summing to real compute seconds. A task
   frame charges its whole duration to the enclosing frame (all of it is
   foreign to the interrupted timer); a measurement frame charges only
   the foreign time it absorbed — its own work belongs to its parent. *)
let frames : float ref list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let with_frame ~foreign f =
  let stack = Domain.DLS.get frames in
  let inner = ref 0.0 in
  stack := inner :: !stack;
  let t0 = now () in
  let result = try Ok (f ()) with e -> Error e in
  let dt = now () -. t0 in
  stack := List.tl !stack;
  (match !stack with
  | parent :: _ -> parent := !parent +. (if foreign then dt else !inner)
  | [] -> ());
  (result, dt -. !inner)

let timed f =
  match with_frame ~foreign:false f with
  | Ok y, exclusive -> (y, exclusive)
  | Error e, _ -> raise e

(* Claim the oldest queued task with the scheduler lock held. Claims are
   where queue depth is visible, so the profiler samples here. *)
let claim_locked t idx =
  if Prof.enabled () then begin
    let ts = Prof.now () in
    Prof.record Prof.Queue_sample ~label:"" ~t0:ts ~t1:ts ~a:(Queue.length t.queue) ~b:0
      ~words:0.0
  end;
  let claimed = Queue.take_opt t.queue in
  if claimed <> None then t.executed.(idx) <- t.executed.(idx) + 1;
  claimed

(* Run one task and account its completion. Exceptions are recorded on the
   batch (first one wins) and re-raised by the batch's [map] caller. The
   batch's last completion is the only one anyone can be waiting for, so
   only it broadcasts. *)
let execute t idx task =
  let probe = if Prof.enabled () then Some (Prof.now (), Gc.quick_stat ()) else None in
  let outcome, exclusive =
    with_frame ~foreign:true (fun () -> try task.run (); None with e -> Some e)
  in
  (* The body catches every exception, so the frame holds [Ok]. layout:
     [Result.get_ok] also links [Stdlib.Result], which keeps the startup
     code's length (DESIGN "Code layout"). *)
  let outcome = Result.get_ok outcome in
  (match probe with
  | Some (t0, g0) when Prof.enabled () ->
      let g1 = Gc.quick_stat () in
      Prof.record Prof.Task ~label:task.label ~t0 ~t1:(Prof.now ())
        ~a:(g1.Gc.minor_collections - g0.Gc.minor_collections)
        ~b:(g1.Gc.major_collections - g0.Gc.major_collections)
        ~words:(g1.Gc.minor_words -. g0.Gc.minor_words)
  | _ -> ());
  Mutex.lock t.mutex;
  t.busy.(idx) <- t.busy.(idx) +. exclusive;
  (match outcome with
  | Some e when task.batch.failure = None -> task.batch.failure <- Some e
  | _ -> ());
  task.batch.remaining <- task.batch.remaining - 1;
  if task.batch.remaining = 0 then Condition.broadcast t.wake;
  Mutex.unlock t.mutex

(* One [Condition.wait], recorded as a sleep span of the given [kind] when
   the profiler is on. Called with the scheduler lock held. *)
let wait_recorded t kind =
  let t0 = if Prof.enabled () then Prof.now () else 0.0 in
  Condition.wait t.wake t.mutex;
  if t0 > 0.0 && Prof.enabled () then
    Prof.record kind ~label:"" ~t0 ~t1:(Prof.now ()) ~a:0 ~b:0 ~words:0.0

let rec worker_loop t idx =
  Mutex.lock t.mutex;
  let rec next () =
    match claim_locked t idx with
    | Some task -> Some task
    | None ->
        if t.shutdown then None
        else begin
          wait_recorded t Prof.Worker_idle;
          next ()
        end
  in
  let claimed = next () in
  Mutex.unlock t.mutex;
  match claimed with
  | None -> ()
  | Some task ->
      execute t idx task;
      worker_loop t idx

(* Default one megaword (8 MB) per worker: large enough that global minor
   collections stop dominating oversubscribed campaigns, small enough to
   stay cache-friendly (BENCH_5.json records the sweep behind this). *)
let minor_heap_words = 1 lsl 20

let create ~workers () =
  if workers < 1 then invalid_arg "Pool.create: workers must be >= 1";
  let t =
    {
      workers;
      queue = Queue.create ();
      mutex = Mutex.create ();
      wake = Condition.create ();
      shutdown = false;
      domains = [];
      busy = Array.make workers 0.0;
      executed = Array.make workers 0;
    }
  in
  t.domains <-
    List.init workers (fun idx ->
        Domain.spawn (fun () ->
            (* Per-domain: Gc.set here, in the worker, is the only way to
               size this domain's minor arena. *)
            Gc.set { (Gc.get ()) with Gc.minor_heap_size = minor_heap_words };
            Domain.DLS.set worker_index (Some idx);
            if Prof.enabled () then begin
              Prof.set_domain ~order:(idx + 1) (Printf.sprintf "worker %d" idx);
              Prof.record_gc ~label:"worker start"
            end;
            worker_loop t idx;
            if Prof.enabled () then Prof.record_gc ~label:"worker exit"));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.shutdown <- true;
  Condition.broadcast t.wake;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []

(* Wait for [batch] to drain. A pool worker helps: it keeps claiming and
   executing the oldest queued task (its own batch's or another's) until
   the batch is empty, sleeping only when the queue is empty.
   An external caller just sleeps on the condition. *)
let await t batch =
  match Domain.DLS.get worker_index with
  | Some idx ->
      let rec help () =
        Mutex.lock t.mutex;
        if batch.remaining = 0 then Mutex.unlock t.mutex
        else begin
          match claim_locked t idx with
          | Some task ->
              Mutex.unlock t.mutex;
              execute t idx task;
              help ()
          | None ->
              wait_recorded t Prof.Await_wait;
              Mutex.unlock t.mutex;
              help ()
        end
      in
      help ()
  | None ->
      Mutex.lock t.mutex;
      while batch.remaining > 0 do
        wait_recorded t Prof.Await_wait
      done;
      Mutex.unlock t.mutex

let map ?(name = fun _ -> "task") t f inputs =
  let n = Array.length inputs in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let batch = { remaining = n; failure = None } in
    Mutex.lock t.mutex;
    Array.iteri
      (fun i x ->
        let label = if Prof.enabled () then name i else "" in
        Queue.push { run = (fun () -> results.(i) <- Some (f x)); label; batch } t.queue)
      inputs;
    Condition.broadcast t.wake;
    Mutex.unlock t.mutex;
    await t batch;
    (match batch.failure with Some e -> raise e | None -> ());
    Array.map Option.get results
  end

let map_list ?name t f xs = Array.to_list (map ?name t f (Array.of_list xs))

type stats = {
  workers : int;
  busy_seconds : float array;
  tasks_executed : int array;
}

let stats t =
  Mutex.lock t.mutex;
  let s =
    {
      workers = t.workers;
      busy_seconds = Array.copy t.busy;
      tasks_executed = Array.copy t.executed;
    }
  in
  Mutex.unlock t.mutex;
  s
