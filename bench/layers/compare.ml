(* compare.exe PARENT.json CHANGE.json [--benchmark FILE] [--claim METRIC:WORKLOAD]...

   Judges two aspipe-bench/2 records from main.exe against the one
   tolerance table, BENCHMARK.json's end-to-end bounds. Per (metric,
   workload) pair it prints both medians and quartiles and a verdict:

   - "ok": the change's median is no worse than the parent's by more than
     the bound;
   - "REGRESSION": it is worse by more than the bound;
   - "unresolved": the parent's own quartile spread is wider than the
     bound, so the run cannot tell (unless every change sample beats every
     parent sample);
   - exact outcomes (virtual-time results of one seed) must match when the
     seeds match; a worse one is a regression.

   A claimed gain (--claim wall_s:adaptive_search) holds only when the
   change wins at least 9 in 10 of the sample pairs, ties counting for
   neither, and the medians differ by more than the parent's quartile
   spread. More failed checks than the parent is a regression. Exits 1 on
   any regression or unmet claim. *)

module Json = Aspipe_obs.Json

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("compare: " ^ msg); exit 2) fmt

let read path =
  match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Ok json when Json.member "schema" json = Some (Json.String "aspipe-bench/2") -> json
  | Ok _ -> fail "%s is not an aspipe-bench/2 record" path
  | Error e -> fail "%s: %s" path e

let workloads json =
  match Json.member "workloads" json with
  | Some (Json.List ws) ->
      List.filter_map
        (fun w -> match Json.member "name" w with Some (Json.String n) -> Some (n, w) | _ -> None)
        ws
  | _ -> []

(* The value at a path of object keys. *)
let at path json = List.fold_left (fun j key -> Option.bind j (Json.member key)) (Some json) path

let samples section metric w =
  match at [ section; metric; "samples" ] w with
  | Some (Json.List xs) -> List.filter_map Metrics.number xs
  | _ -> []

let int_field key w = match Json.member key w with Some (Json.Int n) -> n | _ -> 0

(* How much worse [c] is than [p], as a share of [p]: positive is worse. *)
let worse ~lower p c = if lower then (c -. p) /. Float.abs p else (p -. c) /. Float.abs p
let beats ~lower a b = if lower then a < b else a > b

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse files bench claims = function
    | "--benchmark" :: path :: rest -> parse files path claims rest
    | "--claim" :: c :: rest -> (
        match String.split_on_char ':' c with
        | [ m; w ] -> parse files bench ((m, w) :: claims) rest
        | _ -> fail "--claim expects METRIC:WORKLOAD, got %S" c)
    | file :: rest -> parse (file :: files) bench claims rest
    | [] -> (List.rev files, bench, claims)
  in
  let files, bench, claims = parse [] "BENCHMARK.json" [] args in
  let parent, change =
    match files with [ p; c ] -> (read p, read c) | _ -> fail "usage: compare.exe PARENT.json CHANGE.json"
  in
  let bounds =
    match Metrics.read_benchmark bench with
    | Ok (e2e, _) -> e2e
    | Error e -> fail "%s" e
  in
  let bad = ref 0 in
  let parents = workloads parent in
  Printf.printf "%-16s %-14s %30s %30s %8s  %s\n" "workload" "metric" "parent median [q1, q3]"
    "change median [q1, q3]" "worse" "verdict";
  List.iter
    (fun (name, cw) ->
      match List.assoc_opt name parents with
      | None -> Printf.printf "%-16s only in the change record\n" name
      | Some pw ->
          let describe xs =
            let q1, q3 = Sample.quartiles xs in
            Printf.sprintf "%.6g [%.6g, %.6g]" (Sample.median xs) q1 q3
          in
          List.iter
            (fun (b : Metrics.bound) ->
              let p = samples "metrics" b.Metrics.b_name pw
              and c = samples "metrics" b.Metrics.b_name cw in
              if p <> [] && c <> [] then begin
                let lower = b.Metrics.b_better = "lower" in
                let bound = Option.value b.Metrics.bound ~default:0.0 in
                let w = worse ~lower (Sample.median p) (Sample.median c) in
                let all_better = List.for_all (fun x -> List.for_all (fun y -> beats ~lower x y) p) c in
                let verdict =
                  if Sample.spread p > bound && not all_better then "unresolved (spread > bound)"
                  else if w > bound then (incr bad; "REGRESSION")
                  else "ok"
                in
                Printf.printf "%-16s %-14s %30s %30s %+7.1f%%  %s\n" name b.Metrics.b_name
                  (describe p) (describe c) (100.0 *. w) verdict
              end)
            bounds;
          let same_seed = Json.member "seed" pw = Json.member "seed" cw in
          let exact metric w = Option.bind (at [ "exact"; metric; "value" ] w) Metrics.number in
          List.iter
            (fun (m : Metrics.metric) ->
              match (exact m.Metrics.name pw, exact m.Metrics.name cw) with
              | Some p, Some c when same_seed && p <> c ->
                  let regressed = beats ~lower:(m.Metrics.better = Metrics.Lower) p c in
                  if regressed then incr bad;
                  Printf.printf "%-16s %-14s %30.12g %30.12g %8s  %s\n" name m.Metrics.name p c ""
                    (if regressed then "REGRESSION (exact)" else "changed (better)")
              | _ -> ())
            Metrics.exact;
          if int_field "failed" cw > int_field "failed" pw then begin
            incr bad;
            Printf.printf "%-16s failed checks: parent %d, change %d  REGRESSION\n" name
              (int_field "failed" pw) (int_field "failed" cw)
          end)
    (workloads change);
  List.iter
    (fun (metric, workload) ->
      let lower =
        match List.find_opt (fun (b : Metrics.bound) -> b.Metrics.b_name = metric) bounds with
        | Some b -> b.Metrics.b_better = "lower"
        | None -> fail "--claim: %s is not an end-to-end metric of %s" metric bench
      in
      let find json = Option.map (samples "metrics" metric) (List.assoc_opt workload (workloads json)) in
      match (find parent, find change) with
      | Some p, Some c when p <> [] && c <> [] ->
          let rec zip a b = match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> [] in
          let pairs = zip p c in
          let wins = List.length (List.filter (fun (x, y) -> beats ~lower y x) pairs) in
          let q1, q3 = Sample.quartiles p in
          let diff = Float.abs (Sample.median c -. Sample.median p) in
          let shown =
            10 * wins >= 9 * List.length pairs
            && diff > q3 -. q1
            && beats ~lower (Sample.median c) (Sample.median p)
          in
          if not shown then incr bad;
          Printf.printf
            "claim %s on %s: change wins %d of %d pairs, median moves %.6g (parent spread %.6g): %s\n"
            metric workload wins (List.length pairs) diff (q3 -. q1)
            (if shown then "gain shown" else "NOT SHOWN")
      | _ -> fail "--claim: no samples of %s on %s in both records" metric workload)
    (List.rev claims);
  if !bad > 0 then exit 1
