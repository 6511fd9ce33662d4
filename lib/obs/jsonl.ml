let json_of_mapping m = Json.List (Array.to_list (Array.map (fun p -> Json.Int p) m))

let subject_fields = function
  | Event.Node i -> [ ("subject", Json.String "node"); ("node", Json.Int i) ]
  | Event.Link { src; dst } ->
      [ ("subject", Json.String "link"); ("src", Json.Int src); ("dst", Json.Int dst) ]
  | Event.User_link i -> [ ("subject", Json.String "user_link"); ("node", Json.Int i) ]

let payload_fields = function
  | Event.Service_start { item; stage; node } ->
      [ ("item", Json.Int item); ("stage", Json.Int stage); ("node", Json.Int node) ]
  | Event.Service_finish { item; stage; node; start } ->
      [
        ("item", Json.Int item);
        ("stage", Json.Int stage);
        ("node", Json.Int node);
        ("start", Json.Float start);
      ]
  | Event.Transfer { item; from_stage; src; dst; start; bytes } ->
      [
        ("item", Json.Int item);
        ("from_stage", Json.Int from_stage);
        ("src", Json.Int src);
        ("dst", Json.Int dst);
        ("start", Json.Float start);
        ("bytes", Json.Float bytes);
      ]
  | Event.Completion { item } -> [ ("item", Json.Int item) ]
  | Event.Sojourn { item; arrival } ->
      [ ("item", Json.Int item); ("arrival", Json.Float arrival) ]
  | Event.Slo_window { window; until; completions; violations; attained } ->
      [
        ("window", Json.Int window);
        ("until", Json.Float until);
        ("completions", Json.Int completions);
        ("violations", Json.Int violations);
        ("attained", Json.Bool attained);
      ]
  | Event.Queue_sample { stage; depth } ->
      [ ("stage", Json.Int stage); ("depth", Json.Int depth) ]
  | Event.Calibration_sample { stage; probe; measured } ->
      [ ("stage", Json.Int stage); ("probe", Json.Int probe); ("measured", Json.Float measured) ]
  | Event.Monitor_sample { subject; observed } ->
      subject_fields subject @ [ ("observed", Json.Float observed) ]
  | Event.Forecast_update { subject; predicted; observed } ->
      subject_fields subject
      @ [ ("predicted", Json.Float predicted); ("observed", Json.Float observed) ]
  | Event.Adaptation_considered { mapping; observed_throughput; adopted_throughput } ->
      [
        ("mapping", json_of_mapping mapping);
        ("observed_throughput", Json.Float observed_throughput);
        ("adopted_throughput", Json.Float adopted_throughput);
      ]
  | Event.Adaptation_committed { mapping_before; mapping_after; predicted_gain; migration_cost }
    ->
      [
        ("mapping_before", json_of_mapping mapping_before);
        ("mapping_after", json_of_mapping mapping_after);
        ("predicted_gain", Json.Float predicted_gain);
        ("migration_cost", Json.Float migration_cost);
      ]
  | Event.Adaptation_rejected { mapping; observed_throughput } ->
      [
        ("mapping", json_of_mapping mapping);
        ("observed_throughput", Json.Float observed_throughput);
      ]
  | Event.Node_crashed { node } -> [ ("node", Json.Int node) ]
  | Event.Node_recovered { node } -> [ ("node", Json.Int node) ]
  | Event.Item_lost { item; stage; node } ->
      [ ("item", Json.Int item); ("stage", Json.Int stage); ("node", Json.Int node) ]
  | Event.Item_redispatched { item; stage; node } ->
      [ ("item", Json.Int item); ("stage", Json.Int stage); ("node", Json.Int node) ]
  | Event.Failover_committed { mapping_before; mapping_after; items_redispatched } ->
      [
        ("mapping_before", json_of_mapping mapping_before);
        ("mapping_after", json_of_mapping mapping_after);
        ("items_redispatched", Json.Int items_redispatched);
      ]

let json_of_event (event : Event.t) =
  Json.Obj
    (("ts", Json.Float event.time)
    :: ("seq", Json.Int event.seq)
    :: ("type", Json.String (Event.kind event.payload))
    :: payload_fields event.payload)

let sink_to_buffer buffer event =
  Json.to_buffer buffer (json_of_event event);
  Buffer.add_char buffer '\n'
