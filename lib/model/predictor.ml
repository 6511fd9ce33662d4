type kind = Analytic | Ctmc

type t = { kind : kind; spec : Costspec.t }

let make ?(kind = Analytic) spec =
  Costspec.validate spec;
  { kind; spec }

let kind t = t.kind
let spec t = t.spec

let evaluate t m =
  match t.kind with
  | Analytic -> Analytic.throughput t.spec m
  | Ctmc -> Ctmc.throughput (Ctmc.of_costspec t.spec m)

let choose ?fix_first_on ?exhaustive_limit ?incumbent t =
  let stages = Costspec.stages t.spec and processors = Costspec.processors t.spec in
  match (t.kind, fix_first_on) with
  (* The analytic evaluator takes the incremental fast paths; the CTMC kind
     keeps the generic walks (its evaluator dwarfs enumeration cost anyway). *)
  | Analytic, _ -> Search.auto_spec ?exhaustive_limit ?fix_first_on ?incumbent t.spec
  | Ctmc, None -> Search.auto ?exhaustive_limit ~stages ~processors (evaluate t)
  | Ctmc, Some p ->
      (* Pinning the first stage shrinks the space; exhaustive it if feasible. *)
      Search.exhaustive ~fix_first_on:p ~stages ~processors (evaluate t)

let rank t candidates =
  let scored = List.map (fun m -> (m, evaluate t m)) candidates in
  List.stable_sort (fun (_, a) (_, b) -> Float.compare b a) scored

let predicted_completion t m ~items =
  let x = evaluate t m in
  if x <= 0.0 then infinity
  else Analytic.fill_latency t.spec m +. (Float.of_int (items - 1) /. x)
