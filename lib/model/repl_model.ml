module Repl_sim = Aspipe_skel.Repl_sim

let node_share ~replicas ~processors =
  let counts = Array.make processors 0 in
  Array.iter
    (fun nodes ->
      List.iter
        (fun n ->
          if n < 0 || n >= processors then invalid_arg "Repl_model: node out of range";
          counts.(n) <- counts.(n) + 1)
        nodes)
    replicas;
  counts

let validate spec replicas =
  if Array.length replicas <> Costspec.stages spec then
    invalid_arg "Repl_model: one replica set per stage required";
  Array.iter (fun nodes -> if nodes = [] then invalid_arg "Repl_model: empty replica set") replicas

let stage_capacity ?(dispatch = Repl_sim.Least_loaded) spec ~replicas i =
  validate spec replicas;
  let processors = Costspec.processors spec in
  let counts = node_share ~replicas ~processors in
  let work = spec.Costspec.stage_work.(i) in
  let share node = spec.Costspec.node_rates.(node) /. Float.of_int counts.(node) /. work in
  if work <= 0.0 then infinity
  else
    match dispatch with
    | Repl_sim.Least_loaded -> List.fold_left (fun acc node -> acc +. share node) 0.0 replicas.(i)
    | Repl_sim.Round_robin ->
        (* Equal shares bind at the slowest member. *)
        Float.of_int (List.length replicas.(i))
        *. List.fold_left (fun acc node -> Float.min acc (share node)) infinity replicas.(i)

let throughput ?dispatch spec ~replicas =
  validate spec replicas;
  let ns = Costspec.stages spec in
  let rec scan i acc =
    if i = ns then acc
    else scan (i + 1) (Float.min acc (stage_capacity ?dispatch spec ~replicas i))
  in
  scan 0 infinity

let best_round_robin spec =
  if Costspec.stages spec <> 1 then invalid_arg "Repl_model.best_round_robin: one stage required";
  let rate w = spec.Costspec.node_rates.(w) /. spec.Costspec.stage_work.(0) in
  (* Sort fastest first (ties by node id for determinism); the best equal-share
     deal is always a prefix of this order. *)
  let sorted =
    List.sort
      (fun a b ->
        match Float.compare (rate b) (rate a) with
        | 0 -> compare a b
        | c -> c)
      (List.init (Costspec.processors spec) Fun.id)
  in
  let _, _, best_set, best_score =
    List.fold_left
      (fun (k, prefix, best_set, best_score) w ->
        let prefix = w :: prefix in
        let score = Float.of_int k *. rate w in
        if score > best_score then (k + 1, prefix, prefix, score)
        else (k + 1, prefix, best_set, best_score))
      (1, [], [], neg_infinity) sorted
  in
  (List.sort compare best_set, best_score)

let best_replication spec ~budget ~processors =
  let ns = Costspec.stages spec in
  if processors < ns then invalid_arg "Repl_model.best_replication: need at least one node per stage";
  if budget < ns then invalid_arg "Repl_model.best_replication: budget below one replica per stage";
  let replicas = Array.init ns (fun i -> [ i mod processors ]) in
  let counts () = node_share ~replicas ~processors in
  for _ = 1 to budget - ns do
    (* Give the bottleneck stage one more replica on the least-loaded node. *)
    let bottleneck = ref 0 in
    for i = 1 to ns - 1 do
      if stage_capacity spec ~replicas i < stage_capacity spec ~replicas !bottleneck then
        bottleneck := i
    done;
    let shares = counts () in
    let target = ref 0 in
    for n = 1 to processors - 1 do
      if shares.(n) < shares.(!target) then target := n
    done;
    replicas.(!bottleneck) <- List.sort_uniq compare (!target :: replicas.(!bottleneck))
  done;
  (Array.copy replicas, throughput spec ~replicas)
