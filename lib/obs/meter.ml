type t = {
  bus : Bus.t;
  reg : Metrics.t;
  busy : (int, float ref) Hashtbl.t;  (* node -> accumulated service time *)
}

let node_busy t node =
  match Hashtbl.find_opt t.busy node with
  | Some cell -> cell
  | None ->
      let cell = ref 0.0 in
      Hashtbl.add t.busy node cell;
      cell

let on_event t (event : Event.t) =
  let counter name = Metrics.Counter.get t.reg name in
  let gauge name = Metrics.Gauge.get t.reg name in
  let histogram name = Metrics.Histogram.get t.reg name in
  Metrics.Counter.incr (counter "events.total");
  match event.payload with
  | Event.Service_start _ -> ()
  | Event.Service_finish { stage; node; start; _ } ->
      let duration = event.time -. start in
      Metrics.Histogram.observe (histogram (Printf.sprintf "stage.%d.service_time" stage)) duration;
      Metrics.Counter.incr (counter (Printf.sprintf "node.%d.services" node));
      let busy = node_busy t node in
      busy := !busy +. duration
  | Event.Transfer { start; bytes; _ } ->
      Metrics.Counter.incr (counter "transfers.total");
      Metrics.Gauge.add (gauge "transfers.bytes") bytes;
      Metrics.Histogram.observe (histogram "transfer.time") (event.time -. start)
  | Event.Completion _ -> Metrics.Counter.incr (counter "items.completed")
  | Event.Sojourn { arrival; _ } ->
      Metrics.Histogram.observe (histogram "serve.sojourn") (event.time -. arrival)
  | Event.Slo_window { completions; violations; attained; _ } ->
      Metrics.Counter.incr (counter "slo.windows");
      if not attained then Metrics.Counter.incr (counter "slo.windows_violated");
      Metrics.Counter.add (counter "slo.completions") completions;
      Metrics.Counter.add (counter "slo.violations") violations
  | Event.Queue_sample { stage; depth } ->
      Metrics.Gauge.set (gauge (Printf.sprintf "stage.%d.queue_depth.now" stage))
        (Float.of_int depth);
      Metrics.Histogram.observe
        (histogram (Printf.sprintf "stage.%d.queue_depth" stage))
        (Float.of_int depth)
  | Event.Calibration_sample _ -> Metrics.Counter.incr (counter "calibration.probes")
  | Event.Monitor_sample _ -> Metrics.Counter.incr (counter "monitor.samples")
  | Event.Forecast_update { predicted; observed; _ } ->
      Metrics.Histogram.observe (histogram "forecast.abs_error")
        (Float.abs (predicted -. observed))
  | Event.Adaptation_considered _ -> Metrics.Counter.incr (counter "adaptations.considered")
  | Event.Adaptation_committed { predicted_gain; migration_cost; _ } ->
      Metrics.Counter.incr (counter "adaptations.committed");
      Metrics.Gauge.add (gauge "adaptations.predicted_gain") predicted_gain;
      Metrics.Gauge.add (gauge "adaptations.migration_cost") migration_cost
  | Event.Adaptation_rejected _ -> Metrics.Counter.incr (counter "adaptations.rejected")
  | Event.Node_crashed _ -> Metrics.Counter.incr (counter "faults.node_crashes")
  | Event.Node_recovered _ -> Metrics.Counter.incr (counter "faults.node_recoveries")
  | Event.Item_lost _ -> Metrics.Counter.incr (counter "items.lost")
  | Event.Item_redispatched _ -> Metrics.Counter.incr (counter "items.redispatched")
  | Event.Failover_committed { items_redispatched; _ } ->
      Metrics.Counter.incr (counter "failovers.committed");
      Metrics.Gauge.add (gauge "failovers.items_redispatched")
        (Float.of_int items_redispatched)

let attach bus =
  let t = { bus; reg = Metrics.create (); busy = Hashtbl.create 8 } in
  Bus.subscribe bus (on_event t);
  t

let snapshot t =
  let now = Bus.now t.bus in
  if now > 0.0 then begin
    (* Register utilization gauges in node order, not hash order: gauge
       creation order is registry insertion order, and nothing downstream
       may depend on where int keys land in a hash table. *)
    let nodes = Hashtbl.fold (fun node busy acc -> (node, !busy) :: acc) t.busy [] in
    List.iter
      (fun (node, busy) ->
        Metrics.Gauge.set
          (Metrics.Gauge.get t.reg (Printf.sprintf "node.%d.utilization" node))
          (busy /. now))
      (List.sort (fun (a, _) (b, _) -> Int.compare a b) nodes)
  end;
  Metrics.snapshot t.reg
