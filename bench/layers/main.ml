(* The layered benchmark: four end-to-end workloads, each timed untraced and
   split across layers by a separate traced run. See README.md.

   main.exe --workload W --seed S --seconds T --trace 0|1
       One workload, one process. The last stdout line is the result:
       {"correct", "attempted", "failed", "metrics"}, with the end-to-end
       metrics (--trace 0) or the per-layer metrics (--trace 1) of
       BENCHMARK.json.
   main.exe [--seed S] [--seconds T] [--runs R] [--out FILE]
       Every workload, R runs each (one process per run, workloads
       interleaved); prints the end-to-end table and writes one
       aspipe-bench/2 record (default bench-layers.json) whose samples are
       the run medians. Refuses to run from the dev profile.
   main.exe --traced [--seed S] [--seconds T] [--out FILE] [--trace-out FILE]
       Every workload traced in this process, plus the layer probes;
       prints every per-layer metric with the end-to-end metric it should
       move, writes the record (default bench-layers-traced.json) and one
       Perfetto file (default bench-layers-trace.json).
   main.exe --smoke [--benchmark FILE]
       Smallest sizes, one repetition, no record: checks outputs and that
       the reported names and units are BENCHMARK.json's. *)

module Json = Aspipe_obs.Json
module Prof = Aspipe_prof.Prof

let now = Workloads.now

(* --- command line -------------------------------------------------------- *)

let args = List.tl (Array.to_list Sys.argv)

let value name =
  let rec find = function
    | key :: v :: _ when key = name -> Some v
    | _ :: rest -> find rest
    | [] -> None
  in
  find args

let flag name = List.mem name args

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench/layers: " ^ msg);
      exit 2)
    fmt

let int_arg name ~default =
  match value name with
  | None -> default
  | Some v -> (
      match int_of_string_opt v with
      | Some n when n >= 0 -> n
      | _ -> fail "%s expects a non-negative integer, got %S" name v)

let smoke = flag "--smoke"
let size = if smoke then Workloads.Smoke else Workloads.Full
let seed = int_arg "--seed" ~default:7
let seconds = int_arg "--seconds" ~default:(if smoke then 0 else 25)
let runs = max 1 (int_arg "--runs" ~default:1)

let workload name =
  match Workloads.find name with
  | Some w -> w
  | None ->
      fail "unknown workload %S (one of %s)" name
        (String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all))

(* --- measurement --------------------------------------------------------- *)

(* Peak resident set of this process (VmHWM). *)
let peak_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" In_channel.input_lines
      |> List.find_map (fun line ->
             Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> Float.of_int kb /. 1024.0))
    with Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None -> Float.of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Process start to inputs ready: a child of this executable builds the
   workload's inputs and exits; one sample per child. *)
let setup_seconds (w : Workloads.t) ~count =
  let argv =
    Array.of_list
      ([ Sys.executable_name; "--setup-only"; "--workload"; w.name; "--seed"; string_of_int seed ]
      @ if smoke then [ "--smoke" ] else [])
  in
  List.init count (fun _ ->
      let t0 = now () in
      let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr in
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> now () -. t0
      | _ -> fail "set-up child for %s failed" w.name)

type tally = {
  mutable attempted : int;
  mutable problems : string list;
  mutable digest : string option;
}

let tally () = { attempted = 0; problems = []; digest = None }

(* Every repetition's output is checked: its own checks, and its digest
   against the first repetition's (the same seed must give the same
   report). *)
let checked tally (r : Workloads.rep) =
  tally.attempted <- tally.attempted + 1;
  let repeat =
    match tally.digest with
    | None ->
        tally.digest <- Some r.Workloads.digest;
        []
    | Some d when d = r.Workloads.digest -> []
    | Some _ -> [ "report digest changed between repetitions of one seed" ]
  in
  tally.problems <- List.sort_uniq compare (tally.problems @ r.Workloads.problems @ repeat);
  r

(* Repeat [f] until [seconds] have passed, at least once. *)
let repeat_for f =
  let deadline = now () +. Float.of_int seconds in
  let rec go acc = if acc <> [] && now () >= deadline then List.rev acc else go (f () :: acc) in
  go []

let series name samples =
  let m = Metrics.find_exn name in
  let q1, q3 = Sample.quartiles samples in
  ( name,
    Json.Obj
      [
        ("unit", Json.String m.Metrics.unit_);
        ("better", Json.String (Metrics.better_name m.Metrics.better));
        ("median", Json.Float (Sample.median samples));
        ("q1", Json.Float q1);
        ("q3", Json.Float q3);
        ("n", Json.Int (List.length samples));
        ("samples", Json.List (List.map (fun x -> Json.Float x) samples));
      ] )

(* Group (name, value) rows by name, in first-seen order. *)
let group rows =
  let names = List.fold_left (fun acc (n, _) -> if List.mem n acc then acc else n :: acc) [] rows in
  List.rev_map
    (fun n -> (n, List.filter_map (fun (m, v) -> if m = n then Some v else None) rows))
    names

(* One workload untraced: set-up time, then one warm-up and as many
   repetitions as fit in [seconds]. *)
let end_to_end (w : Workloads.t) =
  let setup = setup_seconds w ~count:(if smoke then 1 else 15) in
  let prepared = w.prepare size ~seed in
  let t = tally () in
  let first = checked t (prepared.Workloads.rep ()) in
  let reps = if smoke then [ first ] else repeat_for (fun () -> checked t (prepared.Workloads.rep ())) in
  let pick f = List.map f reps in
  let metrics =
    [
      series "wall_s" (pick (fun r -> r.Workloads.wall));
      series "baseline_s" (pick (fun r -> r.Workloads.baseline));
      series "gain_x" (pick (fun r -> r.Workloads.gain));
      series "setup_s" setup;
      series "peak_rss_mb" [ peak_rss_mb () ];
    ]
  in
  (t, metrics, first.Workloads.exact)

(* One workload traced: per round, one untraced repetition (GC deltas,
   the untraced wall), one traced repetition (the split) and the layer
   probes; medians over the rounds that fit in [seconds]. *)
let traced (w : Workloads.t) =
  let prepared = w.prepare size ~seed in
  let t = tally () in
  ignore (checked t (prepared.Workloads.rep ()));
  let profile = ref None in
  let round () =
    let g0 = Gc.quick_stat () in
    let r = checked t (prepared.Workloads.rep ()) in
    let g1 = Gc.quick_stat () in
    let s = prepared.Workloads.traced () in
    profile := Some s.Workloads.profile;
    let attributed = List.fold_left (fun acc (_, x) -> acc +. x) 0.0 s.Workloads.parts in
    let items = Float.of_int r.Workloads.items in
    [
      ("split.attributed_frac", attributed /. s.Workloads.split_wall);
      ("split.unattributed_s", s.Workloads.split_wall -. attributed);
      ("obs.trace_wall_ratio", s.Workloads.traced_wall /. r.Workloads.wall);
      ("gc.minor_words_per_item", (g1.Gc.minor_words -. g0.Gc.minor_words) /. items);
      ("gc.minor_collections", Float.of_int (g1.Gc.minor_collections - g0.Gc.minor_collections));
    ]
    @ s.Workloads.values @ Probes.all size
  in
  let rows = List.concat (repeat_for round) in
  (t, List.map (fun (n, samples) -> series n samples) (group rows), Option.get !profile)

(* --- records ------------------------------------------------------------- *)

let number key json =
  Option.value (Option.bind (Json.member key json) Metrics.number) ~default:nan

let int_member key json = match Json.member key json with Some (Json.Int n) -> n | _ -> 0
let string_member key json = match Json.member key json with Some (Json.String s) -> s | _ -> ""
let obj_member key json = match Json.member key json with Some (Json.Obj kv) -> kv | _ -> []

let exact_json (name, v) =
  let m = Metrics.find_exn name in
  ( name,
    Json.Obj
      [
        ("unit", Json.String m.Metrics.unit_);
        ("better", Json.String (Metrics.better_name m.Metrics.better));
        ("value", Json.Float v);
      ] )

let workload_record name t ~section metrics exact =
  Json.Obj
    [
      ("name", Json.String name);
      ("seed", Json.Int seed);
      ("correct", Json.Bool (t.problems = []));
      ("attempted", Json.Int t.attempted);
      ("failed", Json.Int (List.length t.problems));
      ("problems", Json.List (List.map (fun p -> Json.String p) t.problems));
      ("digest", Json.String (Option.value t.digest ~default:""));
      (section, Json.Obj metrics);
      ("exact", Json.Obj exact);
    ]

(* The result line: exactly the metrics BENCHMARK.json lists. *)
let result_line t ~trace metrics =
  let listed =
    if trace then List.filter (fun m -> m.Metrics.listed) Metrics.per_layer else Metrics.end_to_end
  in
  Json.Obj
    [
      ("correct", Json.Bool (t.problems = []));
      ("attempted", Json.Int t.attempted);
      ("failed", Json.Int (List.length t.problems));
      ( "metrics",
        Json.Obj
          (List.map
             (fun m ->
               ( m.Metrics.name,
                 Json.Obj
                   [
                     ("value", Json.Float (number "median" (List.assoc m.Metrics.name metrics)));
                     ("unit", Json.String m.Metrics.unit_);
                   ] ))
             listed) );
    ]

let run_child (w : Workloads.t) ~trace =
  let t, metrics, exact, section =
    if trace then
      let t, metrics, _ = traced w in
      (t, metrics, [], "layers")
    else
      let t, metrics, exact = end_to_end w in
      (t, metrics, List.map exact_json exact, "metrics")
  in
  Printf.printf "record %s\n" (Json.to_string (workload_record w.name t ~section metrics exact));
  print_endline (Json.to_string (result_line t ~trace metrics))

(* One untraced run of [w] in a child process (so peak RSS is its own);
   returns the child's record line. *)
let spawn_run (w : Workloads.t) =
  let argv =
    [ Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int seed ]
    @ [ "--seconds"; string_of_int seconds; "--trace"; "0" ]
    @ if smoke then [ "--smoke" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list argv) in
  let lines = In_channel.input_lines ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "workload %s exited abnormally" w.name);
  let prefix = "record " in
  match List.find_opt (String.starts_with ~prefix) lines with
  | None -> fail "workload %s printed no record" w.name
  | Some line -> (
      let n = String.length prefix in
      match Json.of_string (String.sub line n (String.length line - n)) with
      | Ok json -> json
      | Error e -> fail "workload %s: %s" w.name e)

(* [runs] runs of every workload, interleaved so that a slow spell of the
   host spreads over all of them; per workload, each metric's samples are
   the run medians. Runs of one seed must agree on the report digest and
   on every exact outcome. *)
let end_to_end_records () =
  let rounds = List.init runs (fun _ -> List.map spawn_run Workloads.all) in
  List.mapi
    (fun i (w : Workloads.t) ->
      let per_run = List.map (fun round -> List.nth round i) rounds in
      let first = List.hd per_run in
      let t = tally () in
      List.iter
        (fun r ->
          t.attempted <- t.attempted + int_member "attempted" r;
          let problems =
            match Json.member "problems" r with
            | Some (Json.List ps) -> List.map (function Json.String p -> p | p -> Json.to_string p) ps
            | _ -> []
          in
          let agree =
            if
              string_member "digest" r = string_member "digest" first
              && Json.member "exact" r = Json.member "exact" first
            then []
            else [ "runs of one seed disagree on the report" ]
          in
          t.problems <- List.sort_uniq compare (t.problems @ problems @ agree))
        per_run;
      t.digest <- Some (string_member "digest" first);
      let metrics =
        List.map
          (fun (m : Metrics.metric) ->
            series m.Metrics.name
              (List.map (fun r -> number "median" (List.assoc m.Metrics.name (obj_member "metrics" r))) per_run))
          Metrics.end_to_end
      in
      workload_record w.name t ~section:"metrics" metrics (obj_member "exact" first))
    Workloads.all

let traced_records () =
  List.split
    (List.mapi
       (fun i (w : Workloads.t) ->
         let t, metrics, profile = traced w in
         (workload_record w.name t ~section:"layers" metrics [], (i, w.name, profile)))
       Workloads.all)

(* Per-workload profiles laid back to back in time, each timeline named
   after its workload: one Perfetto file for the whole traced run. *)
let merge_profiles profiles =
  let _, timelines =
    List.fold_left
      (fun (offset, acc) (i, name, (p : Prof.profile)) ->
        let shift (s : Prof.span) =
          { s with Prof.t0 = s.Prof.t0 +. offset; t1 = s.Prof.t1 +. offset }
        in
        let last =
          List.fold_left
            (fun m (tl : Prof.timeline) ->
              List.fold_left (fun m (s : Prof.span) -> Float.max m s.Prof.t1) m tl.Prof.spans)
            0.0 p.Prof.timelines
        in
        ( offset +. last +. 0.1,
          acc
          @ List.map
              (fun (tl : Prof.timeline) ->
                {
                  Prof.order = (100 * i) + tl.Prof.order;
                  domain = name ^ ": " ^ tl.Prof.domain;
                  spans = List.map shift tl.Prof.spans;
                })
              p.Prof.timelines ))
      (0.0, []) profiles
  in
  { Prof.origin = 0.0; timelines }

(* --- output -------------------------------------------------------------- *)

let print_record json =
  Printf.printf "%s: attempted %d, failed %d\n" (string_member "name" json)
    (int_member "attempted" json) (int_member "failed" json);
  let row name value m extra =
    Printf.printf "  %-34s %14.6g %-8s%s\n" name value m.Metrics.unit_ extra
  in
  List.iter
    (fun (name, j) ->
      let m = Metrics.find_exn name in
      row name (number "median" j) m
        (Printf.sprintf " [%.6g, %.6g] n=%d%s" (number "q1" j) (number "q3" j) (int_member "n" j)
           (if m.Metrics.moves = "" then "" else "  -> " ^ m.Metrics.moves)))
    (obj_member "metrics" json @ obj_member "layers" json);
  List.iter
    (fun (name, j) -> row name (number "value" j) (Metrics.find_exn name) "  (exact)")
    (obj_member "exact" json);
  match Json.member "problems" json with
  | Some (Json.List ps) -> List.iter (fun p -> Printf.printf "  FAILED CHECK: %s\n" (Json.to_string p)) ps
  | _ -> ()

let host () =
  Json.Obj
    [
      ("cores", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("profile", Json.String Build_info.profile);
      ("os", Json.String Sys.os_type);
    ]

let total_failed records = List.fold_left (fun acc j -> acc + int_member "failed" j) 0 records

(* The catalogue against BENCHMARK.json, and every record against it: a
   listed metric missing from a record, or in another unit, is a
   mismatch. *)
let benchmark_mismatches ~e2e ~layered =
  let path = Option.value (value "--benchmark") ~default:"BENCHMARK.json" in
  match Metrics.read_benchmark path with
  | Error e -> [ e ]
  | Ok ((e2e_rows, layer_rows) as bench) ->
      let missing section rows json =
        List.filter_map
          (fun (b : Metrics.bound) ->
            match List.assoc_opt b.Metrics.b_name (obj_member section json) with
            | Some j when string_member "unit" j = b.Metrics.b_unit -> None
            | _ ->
                Some
                  (Printf.sprintf "%s reports no %s in %s" (string_member "name" json)
                     b.Metrics.b_name b.Metrics.b_unit))
          rows
      in
      Metrics.check_benchmark bench
      @ List.concat_map (missing "metrics" e2e_rows) e2e
      @ List.concat_map (missing "layers" layer_rows) layered

let () =
  match value "--workload" with
  | Some name when flag "--setup-only" -> ignore ((workload name).prepare size ~seed)
  | Some name -> (
      match value "--trace" with
      | Some "0" -> run_child (workload name) ~trace:false
      | Some "1" -> run_child (workload name) ~trace:true
      | _ -> fail "--trace expects 0 or 1")
  | None when smoke ->
      let e2e = end_to_end_records () in
      let layered, _ = traced_records () in
      let mismatches = benchmark_mismatches ~e2e ~layered in
      let failed = total_failed (e2e @ layered) in
      if failed > 0 then List.iter print_record (e2e @ layered);
      List.iter (fun m -> Printf.printf "MISMATCH: %s\n" m) mismatches;
      if mismatches <> [] || failed > 0 then exit 1;
      print_endline "smoke: ok"
  | None ->
      if Build_info.profile <> "release" then
        fail "profile %S: build with --profile release (the dev profile's -opaque skews every number)"
          Build_info.profile;
      let traced_mode = flag "--traced" in
      let records, profiles =
        if traced_mode then traced_records () else (end_to_end_records (), [])
      in
      List.iter print_record records;
      let out =
        Option.value (value "--out")
          ~default:(if traced_mode then "bench-layers-traced.json" else "bench-layers.json")
      in
      Out_channel.with_open_text out (fun oc ->
          output_string oc
            (Json.to_string
               (Json.Obj
                  [
                    ("schema", Json.String "aspipe-bench/2");
                    ("host", host ());
                    ("seconds", Json.Int seconds);
                    ("runs", Json.Int runs);
                    ("workloads", Json.List records);
                  ]));
          output_char oc '\n');
      Printf.printf "wrote %s\n" out;
      if traced_mode then begin
        let path = Option.value (value "--trace-out") ~default:"bench-layers-trace.json" in
        Aspipe_prof.Export.write (merge_profiles profiles) ~path;
        Printf.printf "wrote %s\n" path
      end;
      if total_failed records > 0 then exit 1
