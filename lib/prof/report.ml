(* Rendering a profile as a contention report.

   The interesting number per task is *exclusive* time: a helping worker's
   clock keeps running while it executes foreign tasks inside an await, so
   a task span's raw duration over-counts on exactly the runs where
   contention matters. The span list is sorted parents-before-children
   (Prof.sorted_spans), so one stack pass recovers the nesting: a direct
   child Task or Await_wait span's duration is charged against its parent
   task, nothing else is. *)

let task_exclusives (tl : Prof.timeline) =
  let out = ref [] in
  let stack = ref [] in
  let close (s, foreign) = out := (s, s.Prof.t1 -. s.Prof.t0 -. !foreign) :: !out in
  let rec pop_closed t0 =
    match !stack with
    | (s, foreign) :: rest when s.Prof.t1 <= t0 ->
        close (s, foreign);
        stack := rest;
        pop_closed t0
    | _ -> ()
  in
  List.iter
    (fun (s : Prof.span) ->
      pop_closed s.Prof.t0;
      (match (s.Prof.kind, !stack) with
      | (Prof.Task | Prof.Await_wait), (_, foreign) :: _ ->
          foreign := !foreign +. (s.Prof.t1 -. s.Prof.t0)
      | _ -> ());
      match s.Prof.kind with
      | Prof.Task -> stack := (s, ref 0.0) :: !stack
      | _ -> ())
    tl.Prof.spans;
  List.iter close !stack;
  List.rev !out

type row = {
  domain : string;
  tasks : int;
  exclusive : float;
  await : float;
  idle : float;
  cache_hits : int;
  cache_probes : int;
  out_bytes : int;
  gc_minor : int;
  gc_mwords : float;
}

let sum kind f spans =
  List.fold_left
    (fun acc (s : Prof.span) -> if s.Prof.kind = kind then acc +. f s else acc)
    0.0 spans

let count kind pred spans =
  List.fold_left
    (fun acc (s : Prof.span) -> if s.Prof.kind = kind && pred s then acc + 1 else acc)
    0 spans

let duration (s : Prof.span) = s.Prof.t1 -. s.Prof.t0

let row_of (tl : Prof.timeline) =
  let spans = tl.Prof.spans in
  let gc = List.filter (fun (s : Prof.span) -> s.Prof.kind = Prof.Gc_sample) spans in
  let gc_minor, gc_mwords =
    match (gc, List.rev gc) with
    | first :: _, last :: _ ->
        (last.Prof.a - first.Prof.a, (last.Prof.words -. first.Prof.words) /. 1e6)
    | _ -> (0, 0.0)
  in
  {
    domain = tl.Prof.domain;
    tasks = count Prof.Task (fun _ -> true) spans;
    exclusive = List.fold_left (fun acc (_, e) -> acc +. e) 0.0 (task_exclusives tl);
    await = sum Prof.Await_wait duration spans;
    idle = sum Prof.Worker_idle duration spans;
    cache_hits = count Prof.Cache_probe (fun s -> s.Prof.a = 1) spans;
    cache_probes = count Prof.Cache_probe (fun _ -> true) spans;
    out_bytes =
      List.fold_left
        (fun acc (s : Prof.span) -> if s.Prof.kind = Prof.Out_flush then acc + s.Prof.a else acc)
        0 spans;
    gc_minor;
    gc_mwords;
  }

let top_n = 10

let render (p : Prof.profile) =
  let buffer = Buffer.create 2048 in
  let rows = List.map row_of p.Prof.timelines in
  Buffer.add_string buffer "######## Wall-clock contention report ########\n";
  Buffer.add_string buffer
    (Printf.sprintf "%-12s %5s %8s %8s %8s %7s %9s %10s %9s\n" "domain" "tasks"
       "excl s" "await s" "idle s" "cache" "out KiB" "gc minor" "alloc Mw");
  List.iter
    (fun r ->
      Buffer.add_string buffer
        (Printf.sprintf "%-12s %5d %8.3f %8.3f %8.3f %3d/%-3d %9.1f %10d %9.1f\n"
           r.domain r.tasks r.exclusive r.await r.idle r.cache_hits r.cache_probes
           (float_of_int r.out_bytes /. 1024.0)
           r.gc_minor r.gc_mwords))
    rows;
  let totals f = List.fold_left (fun acc r -> acc +. f r) 0.0 rows in
  let totali f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  Buffer.add_string buffer
    (Printf.sprintf
       "totals: %d task(s), exclusive %.3f s, await %.3f s, idle %.3f s, %d/%d cache hits\n"
       (totali (fun r -> r.tasks))
       (totals (fun r -> r.exclusive))
       (totals (fun r -> r.await))
       (totals (fun r -> r.idle))
       (totali (fun r -> r.cache_hits))
       (totali (fun r -> r.cache_probes)));
  let tasks =
    List.concat_map
      (fun tl ->
        List.map (fun (s, e) -> (s, e, tl.Prof.domain)) (task_exclusives tl))
      p.Prof.timelines
  in
  let tasks =
    List.stable_sort (fun (_, e1, _) (_, e2, _) -> compare (e2 : float) e1) tasks
  in
  if tasks <> [] then begin
    Buffer.add_string buffer
      (Printf.sprintf "top %d tasks by exclusive seconds:\n"
         (min top_n (List.length tasks)));
    List.iteri
      (fun i ((s : Prof.span), excl, domain) ->
        if i < top_n then
          Buffer.add_string buffer
            (Printf.sprintf "  %2d. %-10s %-12s excl %7.3f s  span %7.3f s  gc %d  alloc %.1f Mw\n"
               (i + 1)
               (if s.Prof.label = "" then "task" else s.Prof.label)
               domain excl (duration s) s.Prof.a (s.Prof.words /. 1e6)))
      tasks
  end;
  Buffer.contents buffer
