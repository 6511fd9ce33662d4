type t = {
  queue : (unit -> unit) Pqueue.t;
  mutable clock : float;
  bus : Aspipe_obs.Bus.t;
}

let now t = t.clock

type handle = Pqueue.handle

let create () =
  let t = { queue = Pqueue.create (); clock = 0.0; bus = Aspipe_obs.Bus.create () } in
  Aspipe_obs.Bus.set_clock t.bus (fun () -> t.clock);
  t

let bus t = t.bus

let schedule_at t ~time f =
  if not (Float.is_finite time) then invalid_arg "Engine.schedule_at: non-finite time";
  if time < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  Pqueue.insert t.queue time f

let[@inline] schedule t ~delay f =
  if not (Float.is_finite delay) || delay < 0.0 then
    invalid_arg "Engine.schedule: delay must be finite and non-negative";
  (* A finite non-negative delay added to a finite clock passes the
     [schedule_at] validation by construction — insert directly. *)
  Pqueue.insert t.queue (t.clock +. delay) f

let cancel = Pqueue.cancel

(* The event loop body: pop (allocation-free) and fire. [pop_min] fuses the
   old peek+pop pair into one heap traversal, and the popped entry is read
   back through [popped_key]/[popped_value] before the callback can touch
   the queue. *)
let[@inline] fire t =
  t.clock <- Pqueue.popped_key t.queue;
  let f = Pqueue.popped_value t.queue in
  f ()

let step t =
  if Pqueue.pop_min t.queue ~horizon:infinity then begin
    fire t;
    true
  end
  else false

let run ?until t =
  match until with
  | None -> while Pqueue.pop_min t.queue ~horizon:infinity do fire t done
  | Some horizon ->
      while Pqueue.pop_min t.queue ~horizon do fire t done;
      if t.clock < horizon then t.clock <- horizon

let periodic t ?start ~every f =
  if every <= 0.0 then invalid_arg "Engine.periodic: period must be positive";
  let first = match start with Some s -> s | None -> t.clock +. every in
  let rec tick () = if f () then ignore (schedule t ~delay:every tick) in
  ignore (schedule_at t ~time:first tick)
