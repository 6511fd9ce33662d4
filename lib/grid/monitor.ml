module Engine = Aspipe_des.Engine
module Rng = Aspipe_util.Rng
module Variate = Aspipe_util.Variate
module Forecast = Aspipe_util.Forecast

type sensor_spec = { noise : float; dropout : float }

let default_sensor = { noise = 0.02; dropout = 0.01 }
let perfect_sensor = { noise = 0.0; dropout = 0.0 }

(* What a sensor reads, for the event subject of its samples. *)
type sensed = Node_sensor | User_link_sensor | Link_sensor

type t = {
  topo : Topology.t;
  forecasters : Forecast.t array;
  link_forecasters : Forecast.t array array;  (* [src].[dst], diagonal unused *)
  user_link_forecasters : Forecast.t array;
  missed : int array;  (* consecutive unanswered heartbeats per node *)
  mutable samples : int;
}

(* Consecutive missed heartbeats that make a node suspected. *)
let suspect_after = 2

let create ?(sensor = default_sensor) ~rng ~every ~horizon topo =
  if every <= 0.0 then invalid_arg "Monitor.create: period must be positive";
  let make_forecaster () = Forecast.adaptive ~fallback:1.0 () in
  let n = Topology.size topo in
  let t =
    {
      topo;
      forecasters = Array.init n (fun _ -> make_forecaster ());
      link_forecasters = Array.init n (fun _ -> Array.init n (fun _ -> make_forecaster ()));
      user_link_forecasters = Array.init n (fun _ -> make_forecaster ());
      missed = Array.make n 0;
      samples = 0;
    }
  in
  let engine = Topology.engine topo in
  let bus = Engine.bus engine in
  let module Bus = Aspipe_obs.Bus in
  let module Event = Aspipe_obs.Event in
  (* The sensor of [sensed] at [src] (to [dst], for a link) takes one
     reading into its forecaster, unless the reading drops out: the noise
     scales the true value, and the reading is clamped to [0, 1]. The event
     subject is built only while the bus is active, and a node's forecast
     update carries the prediction the reading is about to be scored
     against. It is given no float, so a call boxes nothing. *)
  let sense sensed ~src ~dst =
    if not (Variate.bernoulli rng ~p:sensor.dropout) then begin
      let truth =
        match sensed with
        | Node_sensor -> Node.availability (Topology.node topo src)
        | User_link_sensor -> Link.quality (Topology.user_link topo src)
        | Link_sensor -> Link.quality (Topology.link topo ~src ~dst)
      in
      let observed =
        if sensor.noise = 0.0 then truth
        else truth *. (1.0 +. Variate.normal rng ~mean:0.0 ~stddev:sensor.noise)
      in
      let observed = Float.min 1.0 (Float.max 0.0 observed) in
      let forecaster =
        match sensed with
        | Node_sensor -> t.forecasters.(src)
        | User_link_sensor -> t.user_link_forecasters.(src)
        | Link_sensor -> t.link_forecasters.(src).(dst)
      in
      if Bus.active bus then begin
        let subject =
          match sensed with
          | Node_sensor -> Event.Node src
          | User_link_sensor -> Event.User_link src
          | Link_sensor -> Event.Link { src; dst }
        in
        Bus.emit bus (Event.Monitor_sample { subject; observed });
        if sensed = Node_sensor then
          Bus.emit bus
            (Event.Forecast_update
               { subject; predicted = Forecast.predict forecaster; observed })
      end;
      Forecast.observe forecaster observed;
      t.samples <- t.samples + 1
    end
  in
  Engine.periodic engine ~every (fun () ->
      for i = 0 to n - 1 do
        (* Heartbeat first: a crashed node does not answer its sensor at
           all — no sample, no rng draws — and each silent period counts
           toward failure suspicion. *)
        if not (Node.up (Topology.node topo i)) then t.missed.(i) <- t.missed.(i) + 1
        else begin
          t.missed.(i) <- 0;
          sense Node_sensor ~src:i ~dst:i
        end;
        sense User_link_sensor ~src:i ~dst:i;
        for j = 0 to n - 1 do
          if i <> j then sense Link_sensor ~src:i ~dst:j
        done
      done;
      Engine.now engine < horizon);
  t

let node_forecast t i =
  let f = Forecast.predict t.forecasters.(i) in
  Float.min 1.0 (Float.max 0.0 f)

let clamp01 x = Float.min 1.0 (Float.max 0.0 x)

let link_forecast t ~src ~dst =
  if src = dst then 1.0 else clamp01 (Forecast.predict t.link_forecasters.(src).(dst))

let user_link_forecast t i = clamp01 (Forecast.predict t.user_link_forecasters.(i))

let samples_taken t = t.samples
let suspected t i = t.missed.(i) >= suspect_after
