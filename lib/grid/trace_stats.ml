module Stats = Aspipe_util.Stats
module Render = Aspipe_util.Render

type stage_summary = {
  stage : int;
  services : int;
  mean_service_time : float;
  p95_service_time : float;
  total_busy : float;
  nodes_used : int list;
}

let per_stage trace ~stages =
  List.init stages (fun stage ->
      let durations = Trace.service_times trace ~stage in
      let nodes =
        List.sort_uniq compare
          (List.filter_map
             (fun (s : Trace.service) -> if s.Trace.stage = stage then Some s.Trace.node else None)
             (Trace.services trace))
      in
      {
        stage;
        services = Array.length durations;
        mean_service_time = (if Array.length durations = 0 then nan else Stats.mean durations);
        p95_service_time =
          (if Array.length durations = 0 then nan else Stats.quantile durations 0.95);
        total_busy = Array.fold_left ( +. ) 0.0 durations;
        nodes_used = nodes;
      })

let gantt_rows trace =
  let header = [ "kind"; "item"; "stage"; "nodes"; "start"; "finish" ] in
  let service_rows =
    List.map
      (fun (s : Trace.service) ->
        [
          "service";
          string_of_int s.Trace.item;
          string_of_int s.Trace.stage;
          string_of_int s.Trace.node;
          Printf.sprintf "%.6f" s.Trace.start;
          Printf.sprintf "%.6f" s.Trace.finish;
        ])
      (Trace.services trace)
  in
  let transfer_rows =
    List.map
      (fun (t : Trace.transfer) ->
        [
          "transfer";
          string_of_int t.Trace.item;
          string_of_int t.Trace.from_stage;
          Printf.sprintf "%d->%d" t.Trace.src t.Trace.dst;
          Printf.sprintf "%.6f" t.Trace.start;
          Printf.sprintf "%.6f" t.Trace.finish;
        ])
      (Trace.transfers trace)
  in
  header :: (service_rows @ transfer_rows)

let summary_table trace ~stages =
  let table =
    Render.Table.create ~title:"per-stage summary"
      ~columns:[ "stage"; "services"; "mean svc (s)"; "p95 svc (s)"; "busy (s)"; "nodes" ]
  in
  List.iter
    (fun s ->
      Render.Table.add_row table
        [
          string_of_int s.stage;
          string_of_int s.services;
          Printf.sprintf "%.4f" s.mean_service_time;
          Printf.sprintf "%.4f" s.p95_service_time;
          Printf.sprintf "%.2f" s.total_busy;
          "{" ^ String.concat "," (List.map string_of_int s.nodes_used) ^ "}";
        ])
    (per_stage trace ~stages);
  table
