type t = { mutable events : Event.t list (* newest first *) }

let create () = { events = [] }

let sink t event = t.events <- event :: t.events

let attach t bus = Bus.subscribe bus (sink t)

let events_collected t = List.length t.events

let grid_pid = 1
let network_pid = 2

(* Seconds -> trace microseconds. *)
let us s = Json.Float (s *. 1e6)

let base ~name ~cat ~ph ~ts ~pid ~tid rest =
  Json.Obj
    (("name", Json.String name)
    :: ("cat", Json.String cat)
    :: ("ph", Json.String ph)
    :: ("ts", us ts)
    :: ("pid", Json.Int pid)
    :: ("tid", Json.Int tid)
    :: rest)

let metadata ~name ~pid ?tid ?(key = "name") arg =
  Json.Obj
    (("name", Json.String name)
    :: ("ph", Json.String "M")
    :: ("pid", Json.Int pid)
    :: (match tid with Some tid -> [ ("tid", Json.Int tid) ] | None -> [])
    @ [ ("args", Json.Obj [ (key, arg) ]) ])

let document ~other events =
  Json.Obj
    [
      ("traceEvents", Json.List events);
      ("displayTimeUnit", Json.String "ms");
      ("otherData", Json.Obj other);
    ]

let save ~path text =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let mapping_json m = Json.List (Array.to_list (Array.map (fun p -> Json.Int p) m))

let to_json t =
  let events = List.rev t.events in
  let nodes = Hashtbl.create 8 in
  let note_node i = if not (Hashtbl.mem nodes i) then Hashtbl.add nodes i () in
  (* Per-item service slices (start, node), oldest first, for the flows. *)
  let slices : (int, (float * int) list ref) Hashtbl.t = Hashtbl.create 256 in
  let note_slice item start node =
    match Hashtbl.find_opt slices item with
    | Some cell -> cell := (start, node) :: !cell
    | None -> Hashtbl.add slices item (ref [ (start, node) ])
  in
  let completed = ref 0 in
  let main =
    List.filter_map
      (fun (event : Event.t) ->
        match event.payload with
        | Event.Service_finish { item; stage; node; start } ->
            note_node node;
            note_slice item start node;
            Some
              (base
                 ~name:(Printf.sprintf "stage %d" stage)
                 ~cat:"service" ~ph:"X" ~ts:start ~pid:grid_pid ~tid:node
                 [
                   ("dur", us (event.time -. start));
                   ( "args",
                     Json.Obj
                       [ ("item", Json.Int item); ("stage", Json.Int stage); ("node", Json.Int node) ]
                   );
                 ])
        | Event.Transfer { item; from_stage; src; dst; start; bytes } ->
            note_node src;
            note_node dst;
            Some
              (base
                 ~name:(Printf.sprintf "item %d: %d->%d" item src dst)
                 ~cat:"transfer" ~ph:"X" ~ts:start ~pid:network_pid ~tid:src
                 [
                   ("dur", us (event.time -. start));
                   ( "args",
                     Json.Obj
                       [
                         ("item", Json.Int item);
                         ("from_stage", Json.Int from_stage);
                         ("dst", Json.Int dst);
                         ("bytes", Json.Float bytes);
                       ] );
                 ])
        | Event.Completion _ ->
            incr completed;
            Some
              (base ~name:"completed" ~cat:"progress" ~ph:"C" ~ts:event.time ~pid:grid_pid
                 ~tid:0
                 [ ("args", Json.Obj [ ("items", Json.Int !completed) ]) ])
        | Event.Adaptation_committed
            { mapping_before; mapping_after; predicted_gain; migration_cost } ->
            Some
              (base ~name:"adaptation" ~cat:"adaptation" ~ph:"i" ~ts:event.time ~pid:grid_pid
                 ~tid:0
                 [
                   ("s", Json.String "g");
                   ( "args",
                     Json.Obj
                       [
                         ("mapping_before", mapping_json mapping_before);
                         ("mapping_after", mapping_json mapping_after);
                         ("predicted_gain", Json.Float predicted_gain);
                         ("migration_cost", Json.Float migration_cost);
                       ] );
                 ])
        | Event.Node_crashed { node } ->
            note_node node;
            Some
              (base ~name:"node crashed" ~cat:"fault" ~ph:"i" ~ts:event.time ~pid:grid_pid
                 ~tid:node
                 [ ("s", Json.String "g"); ("args", Json.Obj [ ("node", Json.Int node) ]) ])
        | Event.Node_recovered { node } ->
            note_node node;
            Some
              (base ~name:"node recovered" ~cat:"fault" ~ph:"i" ~ts:event.time ~pid:grid_pid
                 ~tid:node
                 [ ("s", Json.String "g"); ("args", Json.Obj [ ("node", Json.Int node) ]) ])
        | Event.Failover_committed { mapping_before; mapping_after; items_redispatched } ->
            Some
              (base ~name:"failover" ~cat:"fault" ~ph:"i" ~ts:event.time ~pid:grid_pid ~tid:0
                 [
                   ("s", Json.String "g");
                   ( "args",
                     Json.Obj
                       [
                         ("mapping_before", mapping_json mapping_before);
                         ("mapping_after", mapping_json mapping_after);
                         ("items_redispatched", Json.Int items_redispatched);
                       ] );
                 ])
        | Event.Monitor_sample { subject = Event.Node i; observed } ->
            note_node i;
            Some
              (base
                 ~name:(Printf.sprintf "availability node %d" i)
                 ~cat:"monitor" ~ph:"C" ~ts:event.time ~pid:grid_pid ~tid:0
                 [ ("args", Json.Obj [ ("availability", Json.Float observed) ]) ])
        | Event.Slo_window { window; until = _; completions; violations; attained } ->
            Some
              (base
                 ~name:(if attained then "SLO window attained" else "SLO window violated")
                 ~cat:"slo" ~ph:"i" ~ts:event.time ~pid:grid_pid ~tid:0
                 [
                   ("s", Json.String "g");
                   ( "args",
                     Json.Obj
                       [
                         ("window", Json.Int window);
                         ("completions", Json.Int completions);
                         ("violations", Json.Int violations);
                       ] );
                 ])
        | Event.Service_start _ | Event.Sojourn _ | Event.Queue_sample _
        | Event.Calibration_sample _ | Event.Monitor_sample _ | Event.Forecast_update _
        | Event.Adaptation_considered _ | Event.Adaptation_rejected _ | Event.Item_lost _
        | Event.Item_redispatched _ ->
            None)
      events
  in
  (* Flow chains: arrows following each item across node tracks. *)
  let flows =
    Hashtbl.fold
      (fun item cell acc ->
        let chain = List.rev !cell in
        if List.length chain < 2 then acc
        else begin
          let last = List.length chain - 1 in
          let name = Printf.sprintf "item %d" item in
          List.concat
            (List.mapi
               (fun k (start, node) ->
                 let ph = if k = 0 then "s" else if k = last then "f" else "t" in
                 let extra = if ph = "f" then [ ("bp", Json.String "e") ] else [] in
                 [
                   base ~name ~cat:"item" ~ph ~ts:start ~pid:grid_pid ~tid:node
                     (("id", Json.Int item) :: extra);
                 ])
               chain)
          @ acc
        end)
      slices []
  in
  let node_ids = List.sort compare (Hashtbl.fold (fun i () acc -> i :: acc) nodes []) in
  let meta =
    metadata ~name:"process_name" ~pid:grid_pid (Json.String "grid")
    :: metadata ~name:"process_name" ~pid:network_pid (Json.String "network")
    :: List.concat_map
         (fun i ->
           [
             metadata ~name:"thread_name" ~pid:grid_pid ~tid:i
               (Json.String (Printf.sprintf "node %d" i));
             metadata ~name:"thread_name" ~pid:network_pid ~tid:i
               (Json.String (Printf.sprintf "from node %d" i));
           ])
         node_ids
  in
  document ~other:[ ("generator", Json.String "aspipe") ] (meta @ main @ flows)

let to_string t = Json.to_string (to_json t)
let write t ~path = save ~path (to_string t ^ "\n")
