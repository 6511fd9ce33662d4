type kind = Analytic | Ctmc

type t = { kind : kind; spec : Costspec.t }

let make ?(kind = Analytic) spec =
  Costspec.validate spec;
  { kind; spec }

let evaluate t m =
  match t.kind with
  | Analytic -> Analytic.throughput t.spec m
  | Ctmc -> Ctmc.throughput (Ctmc.of_costspec t.spec m)

let upper_bound t =
  match t.kind with Analytic -> Analytic.upper_bound t.spec | Ctmc -> infinity

let choose ?fix_first_on ?incumbent t =
  let stages = Costspec.stages t.spec and processors = Costspec.processors t.spec in
  match (t.kind, fix_first_on) with
  (* The analytic evaluator takes the incremental fast paths; the CTMC kind
     keeps the generic walks (its evaluator dwarfs enumeration cost anyway). *)
  | Analytic, _ -> Search.auto_spec ?fix_first_on ?incumbent t.spec
  | Ctmc, None -> Search.auto ~stages ~processors (evaluate t)
  | Ctmc, Some p ->
      (* Pinning the first stage shrinks the space; exhaustive it if feasible. *)
      Search.exhaustive ~fix_first_on:p ~stages ~processors (evaluate t)

(* Fewest nodes first: for k = 1, 2, ..., min(ns, np), one depth-first
   pass over the mappings that use exactly k distinct processors. Stages
   are assigned in index order, and a prefix that can no longer end at
   exactly k processors (more than k already, or too few stages left to
   reach k) is never entered, so every prefix entered reaches a mapping.
   Each mapping has one node count, so it is scored at most once, and the
   first k with a mapping covering [required] holds the answer. Inside one
   k the ranking (higher rate, then lower code) is a total order, so the
   visit order cannot change the answer.

   Each stage tries first the processor it holds now, so the first mapping
   below a prefix keeps as many of the previous mapping's stages as it
   can. The prefix lives in a scratch array; the analytic kind syncs its
   [Incr] state (bit-identical to [Analytic.throughput] by contract) only
   at a mapping, from the shallowest stage reassigned since the previous
   one. The incumbent lives in flat refs and a one-slot float array, so a
   visited mapping allocates only the boxed floats of calls that are not
   inlined. *)
let cheapest ~required t =
  let stages = Costspec.stages t.spec and processors = Costspec.processors t.spec in
  if Mapping.space_within ~stages ~processors ~cap:Mapping.max_enumeration = None then None
  else begin
    let used = Array.make processors 0 in
    let assign = Array.make stages 0 and weight = Array.make stages 1 in
    for i = 1 to stages - 1 do
      weight.(i) <- weight.(i - 1) * processors
    done;
    let incremental =
      match t.kind with
      | Analytic ->
          Some (Analytic.Incr.create t.spec (Mapping.decode ~stages ~processors 0))
      | Ctmc -> None
    in
    let dirty = ref 0 in
    let found = ref false and best_code = ref 0 in
    let best_rate = [| 0.0 |] in
    (* Out of line: inlined into [place], it made the search about 1.5x
       slower on a 4 x 5 space (release build). *)
    let[@inline never] consider code =
      let rate =
        match incremental with
        | Some inc ->
            for i = !dirty to stages - 1 do
              Analytic.Incr.move inc ~stage:i assign.(i)
            done;
            dirty := stages;
            Analytic.Incr.score inc
        | None -> evaluate t (Mapping.of_array ~processors assign)
      in
      if
        (not (rate < required))
        && ((not !found) || rate > best_rate.(0) || (rate = best_rate.(0) && code < !best_code))
      then begin
        found := true;
        best_rate.(0) <- rate;
        best_code := code
      end
    in
    (* The prefix before stage [s] uses [distinct] processors. *)
    let rec place k s distinct code =
      let held = assign.(s) in
      for i = held to held + processors - 1 do
        let q = if i >= processors then i - processors else i in
        let distinct = if used.(q) = 0 then distinct + 1 else distinct in
        if distinct <= k && distinct + (stages - s - 1) >= k then begin
          assign.(s) <- q;
          if s < !dirty then dirty := s;
          let code = code + (q * weight.(s)) in
          if s = stages - 1 then consider code
          else begin
            used.(q) <- used.(q) + 1;
            place k (s + 1) distinct code;
            used.(q) <- used.(q) - 1
          end
        end
      done
    in
    let k = ref 1 in
    while (not !found) && !k <= min stages processors do
      place !k 0 0 0;
      incr k
    done;
    if !found then Some (Mapping.decode ~stages ~processors !best_code) else None
  end
