module Engine = Aspipe_des.Engine
module Signal = Aspipe_des.Signal
module Server = Aspipe_des.Server

type t = {
  id : int;
  engine : Engine.t;
  base_speed : float;
  availability : Signal.t;
  up_signal : Signal.t;  (* 1.0 = up, 0.0 = crashed *)
  rate : Signal.t;
  server : Server.t;
}

let create engine ~id ~speed () =
  if speed <= 0.0 then invalid_arg "Node.create: speed must be positive";
  let availability = Signal.create 1.0 in
  let up_signal = Signal.create 1.0 in
  let rate = Signal.create speed in
  (* The effective rate folds both modulations in; while the node is up the
     product is numerically [speed × availability] exactly, so fault-free
     runs are bit-identical to the pre-fault model. *)
  let rederive () =
    Signal.set rate (speed *. Signal.get availability *. Signal.get up_signal)
  in
  Signal.subscribe availability (fun ~old_value:_ ~new_value:_ -> rederive ());
  Signal.subscribe up_signal (fun ~old_value:_ ~new_value:_ -> rederive ());
  let server = Server.create engine ~rate in
  { id; engine; base_speed = speed; availability; up_signal; rate; server }

let base_speed t = t.base_speed
let availability t = Signal.get t.availability

let set_availability t a =
  let a = Float.min 1.0 (Float.max 0.0 a) in
  Signal.set t.availability a

let up t = Signal.get t.up_signal > 0.5

let set_up t v =
  let was = up t in
  if v <> was then begin
    Signal.set t.up_signal (if v then 1.0 else 0.0);
    let bus = Engine.bus t.engine in
    if v then Aspipe_obs.Bus.emit bus (Aspipe_obs.Event.Node_recovered { node = t.id })
    else Aspipe_obs.Bus.emit bus (Aspipe_obs.Event.Node_crashed { node = t.id })
  end

let server t = t.server
