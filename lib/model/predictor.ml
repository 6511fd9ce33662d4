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

(* Distinct processors of [m]. [seen.(p) = round] marks [p] as counted, so
   a fresh [round] per call needs no clearing. *)
let distinct_processors seen ~round m =
  let nodes = ref 0 in
  for i = 0 to Mapping.stages m - 1 do
    let p = Mapping.processor_of m i in
    if seen.(p) <> round then begin
      seen.(p) <- round;
      incr nodes
    end
  done;
  !nodes

(* One reflected Gray walk over the space: every step moves one stage, so
   the analytic kind re-scores with a single [Incr.move] (bit-identical to
   [Analytic.throughput] by contract). The incumbent lives in flat refs and
   a one-slot float array, so a candidate allocates at most the boxed score
   of a call that is not inlined. A candidate with more distinct nodes than
   the incumbent cannot win and is not scored. *)
let cheapest ~required t =
  let stages = Costspec.stages t.spec and processors = Costspec.processors t.spec in
  if Mapping.space_within ~stages ~processors ~cap:Mapping.max_enumeration = None then None
  else begin
    let seen = Array.make processors 0 and round = ref 0 in
    let incremental =
      match t.kind with
      | Analytic ->
          Some (Analytic.Incr.create t.spec (Mapping.decode ~stages ~processors 0))
      | Ctmc -> None
    in
    let found = ref false and best_nodes = ref 0 and best_code = ref 0 in
    let best_rate = [| 0.0 |] in
    let consider m ~code =
      incr round;
      let nodes = distinct_processors seen ~round:!round m in
      if not (!found && nodes > !best_nodes) then begin
        let rate =
          match incremental with Some inc -> Analytic.Incr.score inc | None -> evaluate t m
        in
        if
          (not (rate < required))
          && ((not !found) || nodes < !best_nodes
             || (nodes = !best_nodes
                && (rate > best_rate.(0) || (rate = best_rate.(0) && code < !best_code))))
        then begin
          found := true;
          best_nodes := nodes;
          best_rate.(0) <- rate;
          best_code := code
        end
      end
    in
    Mapping.iter_gray ~stages ~processors
      ~init:(fun m -> consider m ~code:0)
      ~step:(fun m ~stage ~code ->
        (match incremental with
        | Some inc -> Analytic.Incr.move inc ~stage (Mapping.processor_of m stage)
        | None -> ());
        consider m ~code)
      ();
    if !found then Some (Mapping.decode ~stages ~processors !best_code) else None
  end
