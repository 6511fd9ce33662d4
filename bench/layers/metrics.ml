(* The metric catalogue: every number the benchmark reports, with its unit,
   its direction and, for a layer metric, the end-to-end metric and
   workloads it is expected to move. BENCHMARK.json lists the end-to-end
   metrics and the [listed] layer metrics again with their regression
   bounds; [check_benchmark] keeps the two in step. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  listed : bool;  (** in BENCHMARK.json (reported by every workload) *)
  moves : string;  (** layer metrics: what it should move, and where *)
}

let better_name = function Lower -> "lower" | Higher -> "higher"

let top name unit_ better = { name; unit_; better; listed = true; moves = "" }
let layer ?(listed = false) name unit_ better moves = { name; unit_; better; listed; moves }

let end_to_end =
  [
    top "wall_s" "s" Lower;
    top "baseline_s" "s" Lower;
    top "gain_x" "x" Higher;
    top "setup_s" "s" Lower;
    top "peak_rss_mb" "MB" Lower;
  ]

(* Deterministic outcomes of one seed, reported beside the end-to-end
   metrics and compared exactly: a change that alters a decision for the
   worse shows here even when it is faster. *)
let exact =
  [
    top "virt_throughput_ips" "1/s" Higher;
    top "virt_makespan_s" "s" Lower;
    top "virt_p99_s" "s" Lower;
    top "slo_attainment" "fraction" Higher;
    top "node_seconds" "node*s" Lower;
  ]

let wall_as = "wall_s on adaptive_search"
let wall_sd = "wall_s on serve_day"
let wall_both = "wall_s on adaptive_search and serve_day"
let mc = "wall_s on mc_stream only"
let jn = "wall_s (jobs N) on campaign, not baseline_s (jobs 1)"

let per_layer =
  [
    (* The workload's own split, from its traced run. *)
    layer ~listed:true "split.attributed_frac" "fraction" Higher
      "share of the traced wall the named layers explain (target >= 0.9)";
    layer ~listed:true "obs.trace_wall_ratio" "ratio" Lower "traced wall / untraced wall";
    layer ~listed:true "gc.minor_words_per_item" "words" Lower "wall_s on the workload measured";
    layer ~listed:true "gc.minor_collections" "count" Lower "wall_s on the workload measured";
    layer "split.unattributed_s" "s" Lower "wall minus every attributed part: a finding";
    layer "core.decide_s" "s" Lower wall_both;
    layer "core.decisions" "count" Lower wall_both;
    layer "core.decide_ms_p50" "ms" Lower wall_both;
    layer "core.decide_ms_p90" "ms" Lower wall_both;
    layer "core.startup_ms" "ms" Lower wall_both;
    layer "skel_sim.replay_s" "s" Lower "wall_s and baseline_s on adaptive_search";
    layer "skel_sim.open_s" "s" Lower wall_sd;
    layer "obs.events_emitted_per_item" "count" Lower wall_both;
    layer "skel_mc.latency_us_p50" "us" Lower mc;
    layer "skel_mc.latency_us_p99" "us" Lower mc;
    layer "skel_mc.items_per_s" "1/s" Higher mc;
    layer "skel_mc.des_predicted_items_per_s" "1/s" Higher "none: the model's claim for mc_stream";
    layer "skel_mc.vs_des" "ratio" Higher mc;
    layer "runner.busy_s" "s" Lower jn;
    layer "runner.idle_s" "s" Lower jn;
    layer "runner.await_s" "s" Lower jn;
    layer "runner.steals" "count" Lower jn;
    layer "runner.serial_inflation" "ratio" Lower jn;
    layer "runner.critical_task_s" "s" Lower jn;
    (* Layer probes: fixed inputs, run in every traced run. *)
    layer ~listed:true "des.events_per_s" "1/s" Higher wall_sd;
    layer ~listed:true "des.bytes_per_event" "B" Lower wall_sd;
    layer ~listed:true "skel_sim.items_per_s" "1/s" Higher wall_sd;
    layer ~listed:true "skel_sim.unobserved_items_per_s" "1/s" Higher
      "wall_s on adaptive_search and serve_day (static paths)";
    layer ~listed:true "obs.emit_ns" "ns" Lower wall_both;
    layer ~listed:true "model.choose_ms" "ms" Lower wall_as;
    layer "model.scored" "count" Lower wall_as;
    layer ~listed:true "model.incr_moves_per_s" "1/s" Higher wall_as;
    layer ~listed:true "model.enumerate_eval_ms" "ms" Lower wall_sd;
    layer ~listed:true "serve.arrivals_per_s" "1/s" Higher wall_sd;
    layer ~listed:true "serve.slo_observe_ns" "ns" Lower wall_sd;
    layer ~listed:true "skel_mc.seq_items_per_s" "1/s" Higher "baseline_s on mc_stream";
    layer ~listed:true "skel_mc.spawn_join_ms" "ms" Lower "wall_s and setup_s on mc_stream";
    layer ~listed:true "spsc.handoff_ns_b1" "ns" Lower mc;
    layer ~listed:true "spsc.handoff_ns_b64" "ns" Lower mc;
    layer ~listed:true "pool.task_overhead_us" "us" Lower jn;
  ]
  @ List.map
      (fun id -> layer ("exp." ^ id ^ "_s") "s" Lower "baseline_s (jobs 1) on campaign")
      Aspipe_exp.Registry.ids

let find_exn name =
  match List.find_opt (fun m -> m.name = name) (end_to_end @ exact @ per_layer) with
  | Some m -> m
  | None -> invalid_arg ("bench/layers: metric missing from the catalogue: " ^ name)

(* --- BENCHMARK.json ------------------------------------------------------ *)

module Json = Aspipe_obs.Json

(* A JSON number as a float: the parser reads integral numbers as [Int]. *)
let number = function Json.Float f -> Some f | Json.Int i -> Some (Float.of_int i) | _ -> None

type bound = { b_name : string; b_unit : string; b_better : string; bound : float option }

let read_benchmark path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match Json.of_string text with
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok json ->
      let rows key =
        match Json.member key json with
        | Some (Json.List rows) ->
            List.filter_map
              (fun row ->
                match (Json.member "name" row, Json.member "unit" row, Json.member "better" row) with
                | Some (Json.String b_name), Some (Json.String b_unit), Some (Json.String b_better)
                  ->
                    let bound = Option.bind (Json.member "bound" row) number in
                    Some { b_name; b_unit; b_better; bound }
                | _ -> None)
              rows
        | _ -> []
      in
      Ok (rows "end_to_end", rows "per_layer")

(* The catalogue and BENCHMARK.json must name the same metrics with the
   same units and directions. Returns the mismatches. *)
let check_benchmark (bench_e2e, bench_layer) =
  let compare_lists kind ours theirs =
    let missing =
      List.filter_map
        (fun m ->
          match List.find_opt (fun b -> b.b_name = m.name) theirs with
          | None -> Some (Printf.sprintf "%s metric %s is not in BENCHMARK.json" kind m.name)
          | Some b when b.b_unit <> m.unit_ || b.b_better <> better_name m.better ->
              Some
                (Printf.sprintf "%s metric %s: catalogue says %s/%s, BENCHMARK.json %s/%s" kind
                   m.name m.unit_ (better_name m.better) b.b_unit b.b_better)
          | Some _ -> None)
        ours
    in
    let extra =
      List.filter_map
        (fun b ->
          if List.exists (fun m -> m.name = b.b_name) ours then None
          else Some (Printf.sprintf "BENCHMARK.json %s metric %s is not reported" kind b.b_name))
        theirs
    in
    missing @ extra
  in
  compare_lists "end-to-end" end_to_end bench_e2e
  @ compare_lists "layer" (List.filter (fun m -> m.listed) per_layer) bench_layer
