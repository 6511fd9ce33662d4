module Engine = Aspipe_des.Engine
module Server = Aspipe_des.Server
module Rng = Aspipe_util.Rng
module Topology = Aspipe_grid.Topology
module Node = Aspipe_grid.Node
module Link = Aspipe_grid.Link
module Trace = Aspipe_grid.Trace

(* src_node = -1 encodes the user site. *)
let user_site = -1

type dispatch = Round_robin | Least_loaded

(* Per-item state lives in dense columns indexed by item id (ids run from
   0 to [input.items - 1]), as in [Trace]. *)
type stage_rt = {
  spec : Stage.t;
  mutable replica_set : int list;  (* ascending *)
  outstanding : int array;  (* per topology node *)
  mutable rr_cursor : int;  (* deals so far under round-robin *)
  arrived : (int * int) Queue.t;  (* (item, src node), in item order *)
  replica_of : int array;  (* item -> the replica serving it *)
  start : float array;  (* item -> its service start *)
  finished_on : int array;
      (* reorder buffer: item -> the node that finished it, -1 until then *)
  mutable next_emit : int;
  mutable on_start : int -> unit;  (* the server callbacks, built once *)
  mutable on_finish : int -> unit;
}

type t = {
  engine : Engine.t;
  topo : Topology.t;
  trace : Trace.t;
  dispatch : dispatch;
  stages : stage_rt array;
  work_seed : int;  (* keys every work draw, with the item and stage index *)
  input : Stream_spec.t;
  (* Ordered completion at the sink. *)
  sink_delivered : bool array;  (* item -> its output reached the user *)
  mutable sink_next : int;
  mutable completed : int;
}

let validate topo stages replicas =
  if Array.length stages = 0 then invalid_arg "Repl_sim: empty pipeline";
  if Array.length replicas <> Array.length stages then
    invalid_arg "Repl_sim: one replica set per stage required";
  Array.map
    (fun nodes ->
      if nodes = [] then invalid_arg "Repl_sim: empty replica set";
      List.iter
        (fun n ->
          if n < 0 || n >= Topology.size topo then invalid_arg "Repl_sim: unknown replica node")
        nodes;
      List.sort_uniq compare nodes)
    replicas

(* layout: out of line (DESIGN "Code layout") *)
let[@inline never] transfer_from t ~src ~dst ~bytes k =
  if src = user_site then Link.transfer (Topology.user_link t.topo dst) ~bytes k
  else Link.transfer (Topology.link t.topo ~src ~dst) ~bytes k

(* Ordered completion record at the sink. *)
let rec sink_emit t =
  if t.sink_next < Array.length t.sink_delivered && t.sink_delivered.(t.sink_next) then begin
    Trace.record_completion t.trace ~item:t.sink_next ~time:(Engine.now t.engine);
    t.completed <- t.completed + 1;
    t.sink_next <- t.sink_next + 1;
    sink_emit t
  end

(* Round-robin deals eagerly (equal shares, the classic farm deal);
   least-loaded is demand-driven: an item is only dealt while some replica
   has fewer than [window] items outstanding, so shares follow speed. *)
let window = 2

let pick t s =
  match t.dispatch with
  | Round_robin ->
      let r = List.nth s.replica_set (s.rr_cursor mod List.length s.replica_set) in
      s.rr_cursor <- s.rr_cursor + 1;
      Some r
  | Least_loaded ->
      let best =
        List.fold_left
          (fun best r -> if s.outstanding.(r) < s.outstanding.(best) then r else best)
          (List.hd s.replica_set) (List.tl s.replica_set)
      in
      if s.outstanding.(best) < window then Some best else None

let rec pump t si =
  let s = t.stages.(si) in
  if not (Queue.is_empty s.arrived) then
    match pick t s with
    | None -> () (* every replica is at its window; a service end re-pumps *)
    | Some replica ->
        let item, src = Queue.pop s.arrived in
        s.outstanding.(replica) <- s.outstanding.(replica) + 1;
        let bytes =
          if si = 0 then t.input.Stream_spec.item_bytes
          else t.stages.(si - 1).spec.Stage.output_bytes
        in
        s.replica_of.(item) <- replica;
        transfer_from t ~src ~dst:replica ~bytes (fun () ->
            s.start.(item) <- Engine.now t.engine;
            Server.submit
              (Node.server (Topology.node t.topo replica))
              ~work:(Stage.keyed_work s.spec ~seed:t.work_seed ~item ~stage:si)
              ~tag:item ~on_start:s.on_start s.on_finish);
        pump t si

(* Re-sequence: forward every contiguous finished item downstream (or to the
   sink), preserving the input order for the next stage. *)
and emit t si =
  let s = t.stages.(si) in
  let item = s.next_emit in
  if item < Array.length s.finished_on && s.finished_on.(item) >= 0 then begin
    let node = s.finished_on.(item) in
    s.next_emit <- item + 1;
    let ns = Array.length t.stages in
    if si = ns - 1 then
      Link.transfer (Topology.user_link t.topo node) ~bytes:s.spec.Stage.output_bytes
        (fun () ->
          t.sink_delivered.(item) <- true;
          sink_emit t)
    else begin
      Queue.push (item, node) t.stages.(si + 1).arrived;
      pump t (si + 1)
    end;
    emit t si
  end

(* The server callbacks of stage [si], built once in [create]. *)
let stage_callbacks t si =
  let s = t.stages.(si) in
  s.on_start <- (fun item -> s.start.(item) <- Engine.now t.engine);
  s.on_finish <-
    (fun item ->
      let replica = s.replica_of.(item) in
      Trace.record_service t.trace
        {
          Trace.item;
          stage = si;
          node = replica;
          start = s.start.(item);
          finish = Engine.now t.engine;
        };
      s.outstanding.(replica) <- s.outstanding.(replica) - 1;
      s.finished_on.(item) <- replica;
      emit t si;
      pump t si)

let create ?(dispatch = Least_loaded) ~rng ~topo ~stages ~replicas ~input ~trace
    () =
  let replica_sets = validate topo stages replicas in
  let items = input.Stream_spec.items in
  let t =
    {
      engine = Topology.engine topo;
      topo;
      trace;
      dispatch;
      stages =
        Array.mapi
          (fun index spec ->
            {
              spec;
              replica_set = replica_sets.(index);
              outstanding = Array.make (Topology.size topo) 0;
              rr_cursor = 0;
              arrived = Queue.create ();
              replica_of = Array.make items 0;
              start = Array.make items 0.0;
              finished_on = Array.make items (-1);
              next_emit = 0;
              on_start = ignore;
              on_finish = ignore;
            })
          stages;
      work_seed = Int64.to_int (Rng.bits64 rng) land max_int;
      input;
      sink_delivered = Array.make items false;
      sink_next = 0;
      completed = 0;
    }
  in
  Array.iteri (fun si _ -> stage_callbacks t si) t.stages;
  Engine.schedule_series t.engine
    ~times:(Stream_spec.arrival_times input rng)
    (fun item ->
      Queue.push (item, user_site) t.stages.(0).arrived;
      pump t 0);
  t

let replicas t = Array.map (fun s -> s.replica_set) t.stages

let set_replicas t new_replicas =
  let sets = validate t.topo (Array.map (fun s -> s.spec) t.stages) new_replicas in
  Array.iteri (fun i s -> s.replica_set <- sets.(i)) t.stages;
  (* Fresh capacity may unblock backlogs immediately. *)
  Array.iteri (fun i _ -> pump t i) t.stages

let items_total t = t.input.Stream_spec.items
let finished t = t.completed = items_total t

let run_to_completion t =
  let rec loop () =
    if finished t then ()
    else if Engine.now t.engine > 1e7 then
      failwith "Repl_sim.run_to_completion: exceeded max_time before draining"
    else if Engine.step t.engine then loop ()
    else if not (finished t) then
      failwith "Repl_sim.run_to_completion: event queue drained with items in flight"
  in
  loop ()

let execute ?(rng = Rng.create 42) ?dispatch ~topo ~stages ~replicas ~input () =
  let trace = Trace.create () in
  let t = create ?dispatch ~rng ~topo ~stages ~replicas ~input ~trace () in
  run_to_completion t;
  trace
