type evaluator = Mapping.t -> float

type result = { mapping : Mapping.t; score : float; evaluated : int }

(* Exhaustive search is cheap enough since the incremental evaluator landed
   that the auto policy can afford spaces an order of magnitude larger than
   the historical 20k before bailing to greedy+hill-climb. *)
let default_exhaustive_limit = 262_144

let best_of candidates evaluator =
  match candidates with
  | [] -> invalid_arg "Search.best_of: no candidates"
  | first :: rest ->
      let count = ref 1 in
      let best =
        List.fold_left
          (fun (bm, bs) m ->
            incr count;
            let s = evaluator m in
            if s > bs then (m, s) else (bm, bs))
          (first, evaluator first) rest
      in
      { mapping = fst best; score = snd best; evaluated = !count }

let exhaustive_ref ?fix_first_on ~stages ~processors evaluator =
  best_of (Mapping.enumerate ?fix_first_on ~stages ~processors ()) evaluator

(* Generic exhaustive over the scratch-array enumeration: ascending code
   order with copy-on-improve, so the winner among equal scores is the lowest
   enumeration code — exactly the tie-break [exhaustive_ref] implements by
   folding the materialized list. *)
let exhaustive ?fix_first_on ~stages ~processors evaluator =
  let count = ref 0 in
  let best_score = ref neg_infinity in
  let best = ref [||] in
  let have = ref false in
  Mapping.iter_enumerate ?fix_first_on ~stages ~processors (fun m ->
      incr count;
      let s = evaluator m in
      if (not !have) || s > !best_score then begin
        have := true;
        best_score := s;
        best := Mapping.to_array m
      end);
  {
    mapping = Mapping.of_array ~processors !best;
    score = !best_score;
    evaluated = !count;
  }

let greedy ?fix_first_on ~stages ~processors evaluator =
  if stages <= 0 || processors <= 0 then invalid_arg "Search.greedy";
  let assignment = Array.make stages 0 in
  let evaluated = ref 0 in
  (* A pinned stage 0 is placed, not chosen; the rest ride along on it. *)
  let first =
    match fix_first_on with
    | Some p ->
        Array.fill assignment 0 stages p;
        1
    | None -> 0
  in
  for i = first to stages - 1 do
    let best_processor = ref 0 and best_score = ref neg_infinity in
    for p = 0 to processors - 1 do
      assignment.(i) <- p;
      (* Remaining stages ride along on processor p for the tentative score. *)
      for j = i + 1 to stages - 1 do
        assignment.(j) <- p
      done;
      let score = evaluator (Mapping.of_array ~processors assignment) in
      incr evaluated;
      if score > !best_score then begin
        best_score := score;
        best_processor := p
      end
    done;
    assignment.(i) <- !best_processor;
    for j = i + 1 to stages - 1 do
      assignment.(j) <- !best_processor
    done
  done;
  let mapping = Mapping.of_array ~processors assignment in
  { mapping; score = evaluator mapping; evaluated = !evaluated + 1 }

let max_steps = 1000

let hill_climb ~start ~processors evaluator =
  let evaluated = ref 1 in
  let rec climb mapping score steps =
    if steps >= max_steps then { mapping; score; evaluated = !evaluated }
    else begin
      (* Steepest ascent over the in-place neighbour scratch; the array is
         copied only when it improves on everything seen this step, killing
         the s×(p−1) copies the materialized [neighbours] list used to pay. *)
      let best_s = ref neg_infinity in
      let best_m = ref [||] in
      Mapping.iter_neighbours mapping ~processors (fun ~stage:_ ~target:_ m ->
          incr evaluated;
          let s = evaluator m in
          if s > score && s > !best_s then begin
            best_s := s;
            best_m := Mapping.to_array m
          end);
      if !best_m = [||] then { mapping; score; evaluated = !evaluated }
      else climb (Mapping.of_array ~processors !best_m) !best_s (steps + 1)
    end
  in
  climb start (evaluator start) 0

let auto ?(exhaustive_limit = default_exhaustive_limit) ~stages ~processors evaluator =
  match Mapping.space_within ~stages ~processors ~cap:exhaustive_limit with
  | Some _ -> exhaustive ~stages ~processors evaluator
  | None ->
      let greedy_result = greedy ~stages ~processors evaluator in
      let refined = hill_climb ~start:greedy_result.mapping ~processors evaluator in
      { refined with evaluated = refined.evaluated + greedy_result.evaluated }

(* ------------------------------------------------------------------ *)
(* Spec-specialized fast paths on [Analytic.Incr].                     *)

(* Processors [p] and [q] are interchangeable when transposing them leaves
   the spec bit-identical: equal node rates and user-link costs, and
   latency/bandwidth matrices invariant under the swap (exact float
   equality). Relabeling a mapping by such a transposition then permutes the
   station multiset without changing any station's value, so the score is
   bit-identical — the invariant canonicalization relies on. *)
let symmetric_pair (spec : Costspec.t) p q =
  let np = Costspec.processors spec in
  let matrix_swap_invariant (m : float array array) =
    m.(p).(p) = m.(q).(q)
    && m.(p).(q) = m.(q).(p)
    &&
    let ok = ref true in
    for r = 0 to np - 1 do
      if r <> p && r <> q then
        if not (m.(p).(r) = m.(q).(r) && m.(r).(p) = m.(r).(q)) then ok := false
    done;
    !ok
  in
  spec.Costspec.node_rates.(p) = spec.Costspec.node_rates.(q)
  && spec.Costspec.user_latency.(p) = spec.Costspec.user_latency.(q)
  && spec.Costspec.user_bandwidth.(p) = spec.Costspec.user_bandwidth.(q)
  && matrix_swap_invariant spec.Costspec.latency
  && matrix_swap_invariant spec.Costspec.bandwidth

(* [class_of.(p)] is the smallest processor symmetric with [p]; the pinned
   processor, when any, is frozen in its own singleton so canonicalization
   never relabels it. Checking each candidate against the class
   representative suffices: two processors individually swap-symmetric with
   the same representative are swap-symmetric with each other (their rows
   and columns all equal the representative's up to the swapped entries). *)
let symmetry_classes ?fix_first_on spec =
  let np = Costspec.processors spec in
  let class_of = Array.init np Fun.id in
  let pinned p = fix_first_on = Some p in
  for p = 0 to np - 1 do
    if class_of.(p) = p && not (pinned p) then
      for q = p + 1 to np - 1 do
        if class_of.(q) = q && (not (pinned q)) && symmetric_pair spec p q then
          class_of.(q) <- p
      done
  done;
  class_of

(* Previous member of [p]'s symmetry class in processor order, or -1 when
   [p] is its class's smallest member. Canonical (restricted-growth)
   assignments use a class member only after its predecessor appears. *)
let class_predecessors class_of =
  let np = Array.length class_of in
  let last_seen = Array.make np (-1) in
  Array.init np (fun p ->
      let c = class_of.(p) in
      let pred = last_seen.(c) in
      last_seen.(c) <- p;
      pred)

(* Minimal enumeration code of [assign] over all symmetric relabelings:
   scanning stages from the most significant digit (the last stage — codes
   are little-endian), greedily relabel each class's processors to the
   class's smallest unused member at first use. Returns the relabeled
   assignment, its code. *)
let relabel_min_code ?fix_first_on ~class_of assign =
  let ns = Array.length assign and np = Array.length class_of in
  let members = Array.make np [] in
  for p = np - 1 downto 0 do
    members.(class_of.(p)) <- p :: members.(class_of.(p))
  done;
  let label = Array.make np (-1) in
  let out = Array.make ns 0 in
  let start = match fix_first_on with Some _ -> 1 | None -> 0 in
  (match fix_first_on with Some _ -> out.(0) <- assign.(0) | None -> ());
  for i = ns - 1 downto start do
    let p = assign.(i) in
    if label.(p) < 0 then begin
      let c = class_of.(p) in
      match members.(c) with
      | next :: rest ->
          label.(p) <- next;
          members.(c) <- rest
      | [] -> assert false
    end;
    out.(i) <- label.(p)
  done;
  let code = ref 0 in
  for i = ns - 1 downto start do
    code := (!code * np) + out.(i)
  done;
  (out, !code)

let check_space ?fix_first_on ~stages ~processors ~cap () =
  let free = match fix_first_on with Some _ -> stages - 1 | None -> stages in
  match Mapping.space_within ~stages:free ~processors ~cap with
  | Some n -> n
  | None -> invalid_arg "Mapping.enumerate: assignment space too large"

(* Branch-and-bound DFS over assignment prefixes, scoring leaves with
   [Analytic.Incr]. Stages are assigned in increasing index order, so each
   prefix's per-processor work sums are stage-order left folds — prefixes of
   the exact sums the evaluator computes. Adding work to a processor can
   only lower its capacity station (float division by a left-fold-larger sum
   is monotone), so

     bound = min over processors of (node_rate / work-so-far)

   is an upper bound, {e in float arithmetic}, on every leaf score below the
   prefix: each leaf's throughput is ≤ its own capacity stations, which are
   ≤ the prefix's. Once stage [s] is placed, stage [s-1]'s cycle station is
   fixed except for its sharing count, which can only rise deeper in the
   tree; [Analytic.Incr.cycle_rate] under the prefix's [used] counts is then
   ≥ that station's leaf value, and joins the bound (with the last stage's
   user-link cycle at depth [ns-1]). Pruning is on strict [bound < best]
   only — equal-score subtrees must be visited because the DFS order is not
   ascending-code, and the contract is lowest-code-wins among ties. The
   same strictness lets a caller's [incumbent] seed [best] without changing
   the winner: it is ranked by its (canonical) code like any leaf.

   The prefix lives in a scratch array; [Incr] is synced only at leaves,
   from the shallowest stage changed since the previous leaf, so pruned
   interior nodes cost no evaluator moves. *)
let exhaustive_spec ?fix_first_on ?(prune = true) ?(canonical = true) ?incumbent spec =
  let ns = Costspec.stages spec and np = Costspec.processors spec in
  ignore (check_space ?fix_first_on ~stages:ns ~processors:np ~cap:Mapping.max_enumeration ());
  let start = match fix_first_on with Some _ -> 1 | None -> 0 in
  (match fix_first_on with
  | Some p when p < 0 || p >= np -> invalid_arg "Mapping.enumerate: fix_first_on out of range"
  | _ -> ());
  (* An incumbent off the pin is not a candidate; range-check the rest. *)
  let incumbent =
    match (incumbent, fix_first_on) with
    | Some m, Some p when Mapping.processor_of m 0 <> p -> None
    | Some m, _ -> Some (Mapping.of_array ~processors:np (Mapping.to_array m))
    | None, _ -> None
  in
  let class_of = if canonical then symmetry_classes ?fix_first_on spec else Array.init np Fun.id in
  (* Canonicalization only pays when at least one class has two members;
     fully heterogeneous specs take the plain pruned walk. *)
  let canonical =
    canonical
    &&
    let nontrivial = ref false in
    Array.iteri (fun p c -> if c <> p then nontrivial := true) class_of;
    !nontrivial
  in
  let pred = class_predecessors class_of in
  let used = Array.make np 0 in
  let work = spec.Costspec.stage_work in
  let rates = spec.Costspec.node_rates in
  let bound_work = Array.make np 0.0 in
  let assign = Array.make ns 0 in
  (match fix_first_on with
  | Some p ->
      assign.(0) <- p;
      used.(p) <- 1;
      bound_work.(p) <- 0.0 +. work.(0)
  | None -> ());
  let root_bound =
    match fix_first_on with
    | Some p -> if bound_work.(p) <= 0.0 then infinity else rates.(p) /. bound_work.(p)
    | None -> infinity
  in
  let pow = Array.make (ns - start) 1 in
  for k = 1 to ns - start - 1 do
    pow.(k) <- pow.(k - 1) * np
  done;
  let incr_state =
    Analytic.Incr.create spec
      (match incumbent with Some m -> m | None -> Mapping.of_array ~processors:np assign)
  in
  (* Shallowest stage at which [assign] may differ from [incr_state]. *)
  let dirty = ref start in
  let scored = ref 0 in
  let have = ref false in
  let best_score = ref neg_infinity in
  let best_code = ref max_int in
  let best_assign = ref [||] in
  let consider score leaf code =
    if (not !have) || score >= !best_score then begin
      (* The representative's score is the whole symmetry class's score;
         rank the class by its minimal-code member so the winner is the same
         assignment the plain ascending-code walk returns. *)
      let leaf, code =
        if canonical then relabel_min_code ?fix_first_on ~class_of leaf else (leaf, code)
      in
      if (not !have) || score > !best_score || code < !best_code then begin
        have := true;
        best_score := score;
        best_code := code;
        best_assign := Array.copy leaf
      end
    end
  in
  (match incumbent with
  | Some m ->
      consider (Analytic.Incr.score incr_state) (Mapping.to_array m)
        (Mapping.code_of ?fix_first_on ~processors:np m)
  | None -> ());
  let pruned bound = prune && !have && bound < !best_score in
  (* Bounds take minima by plain [<], not [Float.min]: they only feed [<]
     tests, and [Float.min]'s sign-bit check is a C call on the hot path. *)
  let with_cycle bound i =
    let c = Analytic.Incr.cycle_rate spec assign ~sharing:used.(assign.(i)) i in
    if c < bound then c else bound
  in
  let leaf code =
    for i = !dirty to ns - 1 do
      Analytic.Incr.move incr_state ~stage:i assign.(i)
    done;
    dirty := ns;
    incr scored;
    consider (Analytic.Incr.score incr_state) assign code
  in
  let rec dfs s bound code =
    for q = 0 to np - 1 do
      if (not canonical) || pred.(q) < 0 || used.(pred.(q)) > 0 then begin
        let saved = bound_work.(q) in
        let w = saved +. work.(s) in
        let station = if w <= 0.0 then infinity else rates.(q) /. w in
        let bound' = if station < bound then station else bound in
        if not (pruned bound') then begin
          assign.(s) <- q;
          if s < !dirty then dirty := s;
          used.(q) <- used.(q) + 1;
          let bound' =
            if not prune then bound'
            else begin
              let b = if s > 0 then with_cycle bound' (s - 1) else bound' in
              if s = ns - 1 then with_cycle b s else b
            end
          in
          if not (pruned bound') then begin
            let code = code + (q * pow.(s - start)) in
            if s = ns - 1 then leaf code
            else begin
              bound_work.(q) <- w;
              dfs (s + 1) bound' code;
              bound_work.(q) <- saved
            end
          end;
          used.(q) <- used.(q) - 1
        end
      end
    done
  in
  if start = ns then leaf 0 else dfs start root_bound 0;
  {
    mapping = Mapping.of_array ~processors:np !best_assign;
    score = !best_score;
    evaluated = !scored;
  }

(* Steepest-ascent hill climb on the incremental evaluator: neighbour moves
   are probed as move/undo pairs on one [Incr] state. Neighbour order and
   tie-breaks replicate [hill_climb] exactly, and [Incr] scores are
   bit-identical to the full evaluator, so the trajectory — and therefore
   the result — matches the generic climb on [Analytic.throughput]. *)
let hill_climb_spec ?fix_first_on ~start spec =
  let np = Costspec.processors spec in
  let ns = Costspec.stages spec in
  let first =
    match fix_first_on with
    | Some p when Mapping.processor_of start 0 <> p ->
        invalid_arg "Search.hill_climb_spec: start is off the fix_first_on pin"
    | Some _ -> 1
    | None -> 0
  in
  let st = Analytic.Incr.create spec start in
  let evaluated = ref 1 in
  let score = ref (Analytic.Incr.score st) in
  let steps = ref 0 in
  let improved = ref true in
  while !improved && !steps < max_steps do
    let best_s = ref neg_infinity and best_stage = ref (-1) and best_q = ref (-1) in
    for i = first to ns - 1 do
      let p = Analytic.Incr.assignment st i in
      for q = 0 to np - 1 do
        if q <> p then begin
          Analytic.Incr.move st ~stage:i q;
          incr evaluated;
          let s = Analytic.Incr.score st in
          if s > !score && s > !best_s then begin
            best_s := s;
            best_stage := i;
            best_q := q
          end;
          Analytic.Incr.move st ~stage:i p
        end
      done
    done;
    if !best_stage >= 0 then begin
      Analytic.Incr.move st ~stage:!best_stage !best_q;
      score := !best_s;
      incr steps
    end
    else improved := false
  done;
  { mapping = Analytic.Incr.mapping st; score = !score; evaluated = !evaluated }

let auto_spec ?(exhaustive_limit = default_exhaustive_limit) ?fix_first_on ?incumbent spec =
  let ns = Costspec.stages spec and np = Costspec.processors spec in
  let free = match fix_first_on with Some _ -> ns - 1 | None -> ns in
  match Mapping.space_within ~stages:free ~processors:np ~cap:exhaustive_limit with
  | Some _ -> exhaustive_spec ?fix_first_on ?incumbent spec
  | None ->
      let evaluator m = Analytic.throughput spec m in
      let greedy_result = greedy ?fix_first_on ~stages:ns ~processors:np evaluator in
      let refined = hill_climb_spec ?fix_first_on ~start:greedy_result.mapping spec in
      { refined with evaluated = refined.evaluated + greedy_result.evaluated }
