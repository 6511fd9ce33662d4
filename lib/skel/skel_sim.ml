module Engine = Aspipe_des.Engine
module Server = Aspipe_des.Server
module Rng = Aspipe_util.Rng
module Topology = Aspipe_grid.Topology
module Node = Aspipe_grid.Node
module Link = Aspipe_grid.Link
module Trace = Aspipe_grid.Trace
module Bus = Aspipe_obs.Bus
module Event = Aspipe_obs.Event
module Ring = Aspipe_util.Ring

(* Between dispatch and delivery a stage holds at most one item: [busy]
   blocks the next dispatch until the output move lands. So the item in
   service, the item in its output move and their start instants live in
   the stage, and the service and move callbacks are built once per stage
   in [create]; a stage visit allocates no closure. *)
type stage_state = {
  spec : Stage.t;
  index : int;
  mutable node : int;
  pending : int Ring.t;  (* item ids awaiting this stage, FIFO *)
  parked : int Ring.t;
      (* items whose delivery waits because [pending] hit the buffer
         capacity, in arrival order; each holds its sender busy *)
  mutable busy : bool;  (* an item of this stage is submitted to a server *)
  mutable in_service : int;
      (* the submitted item until its service finishes, -1 otherwise;
         [busy] with [in_service = -1] means the output move is in flight *)
  mutable service_node : int;  (* the node the submitted item runs on *)
  mutable moving : int;  (* the item whose output move is in flight *)
  mutable move_dst : int;  (* that move's destination node *)
  mutable migrating_to : int option;  (* destination of an in-flight migration *)
  mutable lost : int list;
      (* items this stage had accepted (per-stage checkpoint) that died in a
         crash and await re-dispatch; unordered *)
  mutable replaying : bool;
      (* a checkpoint replay's bulk transfer is in flight: dispatch is held
         so the replayed items keep their FIFO place ahead of anything that
         queued after the crash *)
  mutable on_start : int -> unit;  (* the server's service-start callback *)
  mutable on_finish : int -> unit;  (* the server's service-end callback *)
  mutable on_moved : unit -> unit;  (* the output move has landed *)
}

type t = {
  engine : Engine.t;
  bus : Bus.t;
  topo : Topology.t;
  rng : Rng.t;
  stages : stage_state array;
  service_start : float array;  (* per stage: its submitted item's start *)
  move_start : float array;  (* per stage: its output move's start *)
  work_seed : int;  (* keys every work draw, with the item and stage index *)
  input : Stream_spec.t;
  queue_capacity : int option;  (* per-stage buffer bound; None = unbounded *)
  open_stream : bool;
      (* arrivals are injected by an external driver (the serving layer)
         rather than scheduled from [input] at creation; items_total tracks
         what has actually been injected *)
  mutable arrival_stamps : float array;
      (* item id -> open-arrival instant, NaN when none (never stamped, or
         cleared at completion); only written in open-stream mode so closed
         runs keep their exact event stream *)
  on_completion : (item:int -> arrival:float -> unit) option;
  trace : Trace.t option;
      (* recorded directly, not through the bus: completions, entry
         instants and arrival stamps *)
  mutable injected : int;
  mutable completed : int;
  mutable lost_total : int;
  mutable redispatched_total : int;
}

let check_mapping topo stages mapping =
  if Array.length mapping <> Array.length stages then
    invalid_arg "Skel_sim: mapping length must equal stage count";
  Array.iter
    (fun node ->
      if node < 0 || node >= Topology.size topo then
        invalid_arg "Skel_sim: mapping names an unknown node")
    mapping

(* Append [item] to stage [k]'s input buffer. *)
let enqueue t k item =
  let dst = t.stages.(k) in
  Ring.push dst.pending item;
  if Bus.active t.bus then
    Bus.emit t.bus (Event.Queue_sample { stage = k; depth = Ring.length dst.pending })

(* Out of line: every delivery, completion, recovery and remap calls it,
   and -inline 200 would otherwise copy it into each. *)
let rec try_dispatch t si =
  let s = t.stages.(si) in
  if
    (not s.busy) && s.migrating_to = None && (not s.replaying)
    && Node.up (Topology.node t.topo s.node)
    && not (Ring.is_empty s.pending)
  then begin
    let item = Ring.pop s.pending in
    if Bus.active t.bus then
      Bus.emit t.bus (Event.Queue_sample { stage = si; depth = Ring.length s.pending });
    s.busy <- true;
    s.in_service <- item;
    (* A buffer slot opened: land one parked delivery, as [deliver] would.
       [busy] is already set, so the landed item waits for this stage's
       next dispatch. *)
    if not (Ring.is_empty s.parked) then begin
      enqueue t si (Ring.pop s.parked);
      if si > 0 then begin
        t.stages.(si - 1).busy <- false;
        try_dispatch t (si - 1)
      end
    end;
    s.service_node <- s.node;
    t.service_start.(si) <- Engine.now t.engine;
    let work = Stage.keyed_work s.spec ~seed:t.work_seed ~item ~stage:si in
    Server.submit
      (Node.server (Topology.node t.topo s.node))
      ~work ~tag:item ~on_start:s.on_start s.on_finish
  end
[@@inline never]

(* Hand [item] to stage [k]'s input buffer. A delivery into stage [k > 0]
   came from stage [k - 1], whose output move it completes: that stage is
   free for its next item. *)
let deliver t k item =
  enqueue t k item;
  if k > 0 then begin
    t.stages.(k - 1).busy <- false;
    try_dispatch t (k - 1)
  end;
  try_dispatch t k

(* Apply the buffer bound: a delivery to a full stage parks (holding its
   upstream sender busy — that is the back pressure) until a slot opens. *)
let land_delivery t k item =
  match t.queue_capacity with
  | Some capacity when Ring.length t.stages.(k).pending >= capacity ->
      Ring.push t.stages.(k).parked item
  | Some _ | None -> deliver t k item

(* The output move is part of the stage's cycle — the stage stays busy
   until its output is delivered downstream (synchronous send, as in the
   skeleton's (move).(process).(move) behaviour), so slow links throttle
   the stage that feeds them. The last stage's output crosses the user link
   from wherever it ran. *)
let forward t s item =
  s.moving <- item;
  let si = s.index in
  let bytes = s.spec.Stage.output_bytes in
  if si = Array.length t.stages - 1 then
    Link.transfer (Topology.user_link t.topo s.service_node) ~bytes s.on_moved
  else begin
    let dst_node = t.stages.(si + 1).node in
    s.move_dst <- dst_node;
    t.move_start.(si) <- Engine.now t.engine;
    Link.transfer (Topology.link t.topo ~src:s.service_node ~dst:dst_node) ~bytes s.on_moved
  end

(* The per-stage callbacks, built once in [create]. *)
let stage_callbacks t s =
  let si = s.index in
  s.on_start <-
    (fun item ->
      t.service_start.(si) <- Engine.now t.engine;
      if Bus.active t.bus then
        Bus.emit t.bus (Event.Service_start { item; stage = si; node = s.service_node }));
  s.on_finish <-
    (fun item ->
      s.in_service <- -1;
      let start = t.service_start.(si) in
      if Bus.active t.bus then
        Bus.emit t.bus (Event.Service_finish { item; stage = si; node = s.service_node; start });
      (* An item enters the pipeline when its first stage-0 service starts:
         the instant a closed stream's sojourn counts from. *)
      (if si = 0 then
         match t.trace with Some trace -> Trace.record_entry trace ~item ~time:start | None -> ());
      forward t s item);
  s.on_moved <-
    (if si < Array.length t.stages - 1 then fun () ->
       let item = s.moving in
       if Bus.active t.bus then
         Bus.emit t.bus
           (Event.Transfer
              {
                item;
                from_stage = si;
                src = s.service_node;
                dst = s.move_dst;
                start = t.move_start.(si);
                bytes = s.spec.Stage.output_bytes;
              });
       land_delivery t (si + 1) item
     else fun () ->
       let item = s.moving in
       t.completed <- t.completed + 1;
       if Bus.active t.bus then Bus.emit t.bus (Event.Completion { item });
       (match t.trace with
       | Some trace -> Trace.record_completion trace ~item ~time:(Engine.now t.engine)
       | None -> ());
       if t.open_stream then begin
         let arrival = t.arrival_stamps.(item) in
         if not (Float.is_nan arrival) then begin
           t.arrival_stamps.(item) <- nan;
           if Bus.active t.bus then Bus.emit t.bus (Event.Sojourn { item; arrival });
           (match t.trace with
           | Some trace -> Trace.record_arrival trace ~item ~time:arrival
           | None -> ());
           match t.on_completion with Some f -> f ~item ~arrival | None -> ()
         end
       end;
       s.busy <- false;
       try_dispatch t si)

(* An arrival crosses the user link to the first stage's node. Arrivals
   can overlap on the link, so each carries its item in its own callback. *)
let inject t ~item =
  let first = t.stages.(0) in
  let link = Topology.user_link t.topo first.node in
  Link.transfer link ~bytes:t.input.Stream_spec.item_bytes (fun () -> land_delivery t 0 item)

(* Payload bytes a queued item of stage [si] carries during a migration or a
   checkpoint re-dispatch: the upstream stage's output (or the user input for
   the first stage). *)
let queued_item_bytes t si =
  if si = 0 then t.input.Stream_spec.item_bytes
  else t.stages.(si - 1).spec.Stage.output_bytes

(* --- fault semantics ------------------------------------------------- *)

(* Land parked deliveries while buffer room remains. The dispatch path lands
   one per popped item; this covers the crash path, where draining [pending]
   frees slots without any dispatch happening. *)
let rec refill t s =
  if not (Ring.is_empty s.parked) then begin
    match t.queue_capacity with
    | Some capacity when Ring.length s.pending >= capacity -> ()
    | Some _ | None ->
        deliver t s.index (Ring.pop s.parked);
        refill t s
  end

(* Re-dispatch a stage's lost items from the per-stage checkpoint: their
   payloads are re-fetched from the upstream stage (the user site for stage
   0) in one bulk transfer, then prepended to the pending queue. Prepending
   preserves the pipeline's FIFO order: each single-server stage emits in
   item order, so everything downstream of the crash point carries smaller
   ids than every lost item, and anything that landed in [pending] after the
   crash carries larger ids. *)
let restore_stage t si =
  let s = t.stages.(si) in
  (* Only replay onto a live node; a dead destination keeps the checkpoint
     until a later recovery or failover finds the stage a live home. *)
  if s.lost <> [] && Node.up (Topology.node t.topo s.node) then begin
    let items = List.sort compare s.lost in
    s.lost <- [];
    let bytes = Float.of_int (List.length items) *. queued_item_bytes t si in
    let link =
      if si = 0 then Topology.user_link t.topo s.node
      else Topology.link t.topo ~src:t.stages.(si - 1).node ~dst:s.node
    in
    s.replaying <- true;
    Link.transfer link ~bytes (fun () ->
        s.replaying <- false;
        (* Prepend in order: pushing the reversed list at the front leaves
           the replayed items ahead of everything queued since, smallest id
           first. *)
        List.iter (fun item -> Ring.push_front s.pending item) (List.rev items);
        List.iter
          (fun item ->
            t.redispatched_total <- t.redispatched_total + 1;
            if Bus.active t.bus then
              Bus.emit t.bus (Event.Item_redispatched { item; stage = si; node = s.node }))
          items;
        if Bus.active t.bus then
          Bus.emit t.bus (Event.Queue_sample { stage = si; depth = Ring.length s.pending });
        try_dispatch t si)
  end

(* A crash kills what runs and what waits on the node (fail-stop: no
   output escapes), recorded per stage so the checkpoint-based re-dispatch
   can replay exactly those items. A stage's in-service item runs on its
   [service_node], which a migration that landed mid-service leaves
   behind: it dies with that node, wherever the stage now lives, and a
   stage that has settled on a live node replays it there at once. A stage
   that moved onto the crashed node keeps an item still served on its old
   live node. Queued inputs wait on the stage's current node and die with
   it, except those of a stage mid-migration: their bytes are part of the
   migration transfer in flight on the network, not on the dying node. An
   output move already handed to the network also survives: the send
   happened. *)
let on_crash t node =
  Array.iter
    (fun s ->
      if s.in_service >= 0 && s.service_node = node then begin
        let item = s.in_service in
        s.in_service <- -1;
        s.busy <- false;
        s.lost <- item :: s.lost;
        t.lost_total <- t.lost_total + 1;
        if Bus.active t.bus then
          Bus.emit t.bus (Event.Item_lost { item; stage = s.index; node });
        if s.node <> node && s.migrating_to = None then restore_stage t s.index
      end;
      if s.node = node && s.migrating_to = None then begin
        if not (Ring.is_empty s.pending) then begin
          Ring.iter s.pending (fun item ->
              s.lost <- item :: s.lost;
              t.lost_total <- t.lost_total + 1;
              if Bus.active t.bus then
                Bus.emit t.bus (Event.Item_lost { item; stage = s.index; node }));
          Ring.clear s.pending;
          if Bus.active t.bus then
            Bus.emit t.bus (Event.Queue_sample { stage = s.index; depth = 0 });
          refill t s
        end
      end)
    t.stages;
  ignore (Server.drop_all (Node.server (Topology.node t.topo node)))

(* Naive same-node recovery: when a node rejoins, each stage still mapped to
   it replays its lost items where it stands. *)
let on_recover t node =
  Array.iteri
    (fun si s ->
      if s.node = node && s.migrating_to = None then begin
        restore_stage t si;
        try_dispatch t si
      end)
    t.stages

let create ?queue_capacity ?trace ?(arrivals = `From_input) ?on_completion ~rng ~topo ~stages
    ~mapping ~input () =
  check_mapping topo stages mapping;
  if Array.length stages = 0 then invalid_arg "Skel_sim: empty pipeline";
  (match queue_capacity with
  | Some c when c < 1 -> invalid_arg "Skel_sim: queue capacity must be at least 1"
  | Some _ | None -> ());
  let engine = Topology.engine topo in
  (* The caller's trace (when given) is written directly, not subscribed:
     without a full-stream sink (JSONL, Perfetto, metrics, a subscribed
     trace) the bus stays inactive and the guarded hot emits construct no
     payloads at all. *)
  let t =
    {
      engine;
      bus = Engine.bus engine;
      topo;
      rng;
      stages =
        Array.mapi
          (fun index spec ->
            {
              spec;
              index;
              node = mapping.(index);
              pending = Ring.create ~dummy:0;
              parked = Ring.create ~dummy:0;
              busy = false;
              in_service = -1;
              service_node = mapping.(index);
              moving = -1;
              move_dst = -1;
              migrating_to = None;
              lost = [];
              replaying = false;
              on_start = ignore;
              on_finish = ignore;
              on_moved = ignore;
            })
          stages;
      service_start = Array.make (Array.length stages) 0.0;
      move_start = Array.make (Array.length stages) 0.0;
      work_seed = Int64.to_int (Rng.bits64 rng) land max_int;
      input;
      queue_capacity;
      open_stream = (arrivals = `External);
      arrival_stamps = [||];
      on_completion;
      trace;
      injected = (if arrivals = `External then 0 else input.Stream_spec.items);
      completed = 0;
      lost_total = 0;
      redispatched_total = 0;
    }
  in
  (* React to fault events already ordered on the bus: the crash/recovery
     event precedes the item-loss / re-dispatch events it causes. Control
     interest: the fault handler must work on a trace-less bus without
     keeping the per-item hot emits alive. *)
  Bus.subscribe ~interest:Control t.bus (fun (event : Event.t) ->
      match event.Event.payload with
      | Event.Node_crashed { node } -> on_crash t node
      | Event.Node_recovered { node } -> on_recover t node
      | _ -> ());
  Array.iter (stage_callbacks t) t.stages;
  (match arrivals with
  | `External -> ()
  | `From_input ->
      Engine.schedule_series engine
        ~times:(Stream_spec.arrival_times input rng)
        (fun item -> inject t ~item));
  t

(* Open-arrival entry point: the serving layer calls this from its own
   arrival events. The stamp is taken before the user-link transfer starts,
   so the recorded sojourn covers the full user-visible residence. *)
let inject_external t ~item =
  if not t.open_stream then
    invalid_arg "Skel_sim.inject: simulator was created with ~arrivals:`From_input";
  if item < 0 then invalid_arg "Skel_sim.inject: item ids must be non-negative";
  let n = Array.length t.arrival_stamps in
  if item >= n then begin
    let grown = Array.make (Int.max (item + 1) (Int.max 1024 (2 * n))) nan in
    Array.blit t.arrival_stamps 0 grown 0 n;
    t.arrival_stamps <- grown
  end;
  t.arrival_stamps.(item) <- Engine.now t.engine;
  t.injected <- t.injected + 1;
  inject t ~item

(* The exported [inject] is the stamping open-stream one; the closed path's
   internal injector above keeps its name for the arrival scheduling in
   [create]. *)
let inject = inject_external

let mapping t = Array.map (fun s -> s.node) t.stages

let remap t new_mapping =
  check_mapping t.topo (Array.map (fun s -> s.spec) t.stages) new_mapping;
  Array.iter
    (fun s ->
      match s.migrating_to with
      | Some dest when new_mapping.(s.index) <> dest ->
          invalid_arg "Skel_sim.remap: stage already migrating"
      | Some _ | None -> ())
    t.stages;
  let total = ref 0.0 in
  Array.iter
    (fun s ->
      let dst = new_mapping.(s.index) in
      let live = Node.up (Topology.node t.topo s.node) in
      if dst <> s.node && s.migrating_to = None then begin
        if live then begin
          (* Live source: state and queued payloads cross the link, then
             the stage resumes at [dst], replaying any checkpointed losses. *)
          let src = s.node in
          let bytes =
            s.spec.Stage.state_bytes
            +. (Float.of_int (Ring.length s.pending) *. queued_item_bytes t s.index)
          in
          total := !total +. bytes;
          s.migrating_to <- Some dst;
          let link = Topology.link t.topo ~src ~dst in
          Link.transfer link ~bytes (fun () ->
              s.node <- dst;
              s.migrating_to <- None;
              restore_stage t s.index;
              try_dispatch t s.index)
        end
        else begin
          (* Dead source: there is no state to fetch from the corpse. The
             stage is re-instantiated at [dst] immediately and its lost
             items are re-dispatched from the checkpoint (their payloads
             re-fetched from upstream by [restore_stage]). *)
          s.node <- dst;
          if Bus.active t.bus then
            Bus.emit t.bus
              (Event.Queue_sample { stage = s.index; depth = Ring.length s.pending });
          restore_stage t s.index;
          try_dispatch t s.index
        end
      end
      else if dst = s.node && live then begin
        restore_stage t s.index;
        try_dispatch t s.index
      end)
    t.stages;
  !total

let migrating t = Array.exists (fun s -> s.migrating_to <> None) t.stages

let items_total t = if t.open_stream then t.injected else t.input.Stream_spec.items
let items_completed t = t.completed
let finished t = t.completed = items_total t

let lost_items t =
  List.sort compare (Array.fold_left (fun acc s -> s.lost @ acc) [] t.stages)

(* The stall watchdog's report: which stage holds what, where, and whether a
   dead node explains the stall — so a fault-induced DNF reads differently
   from a modelling bug. *)
let describe_stall t reason =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "Skel_sim: %s at t=%.2f with %d/%d items completed" reason
       (Engine.now t.engine) t.completed (items_total t));
  let dead_holds = ref false in
  Array.iter
    (fun s ->
      let node_up = Node.up (Topology.node t.topo s.node) in
      if not node_up then dead_holds := true;
      Buffer.add_string b
        (Printf.sprintf "\n  stage %d (%s) on node %d [%s]: %s%s, %d queued, %d parked, %d lost"
           s.index s.spec.Stage.name s.node
           (if node_up then "up" else "DOWN")
           (if s.busy then
              if s.in_service >= 0 then Printf.sprintf "serving item %d" s.in_service
              else "busy (output move in flight)"
            else "idle")
           (match s.migrating_to with
           | Some d -> Printf.sprintf ", migrating to node %d" d
           | None -> "")
           (Ring.length s.pending)
           (Ring.length s.parked)
           (List.length s.lost)))
    t.stages;
  if !dead_holds then
    Buffer.add_string b
      "\n  a DOWN node holds a stage: fault-induced stall (DNF) — recovery or failover is \
       required to finish, this is not a modelling bug";
  Buffer.contents b

let run t =
  let rec loop () =
    if finished t then `Completed
    else if Engine.now t.engine > 1e7 then
      `Stalled (describe_stall t "exceeded max_time before draining")
    else if Engine.step t.engine then loop ()
    else if finished t then `Completed
    else `Stalled (describe_stall t "event queue drained with items in flight")
  in
  loop ()

let run_to_completion t =
  match run t with `Completed -> () | `Stalled message -> failwith message

let execute ?(rng = Rng.create 42) ?queue_capacity ~topo ~stages ~mapping ~input () =
  let trace = Trace.create () in
  let t = create ?queue_capacity ~trace ~rng ~topo ~stages ~mapping ~input () in
  run_to_completion t;
  trace

let items_injected t = t.injected
let items_lost_total t = t.lost_total
let items_redispatched_total t = t.redispatched_total
