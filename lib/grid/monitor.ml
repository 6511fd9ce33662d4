module Engine = Aspipe_des.Engine
module Rng = Aspipe_util.Rng
module Variate = Aspipe_util.Variate
module Forecast = Aspipe_util.Forecast

type sensor_spec = { noise : float; dropout : float }

let default_sensor = { noise = 0.02; dropout = 0.01 }
let perfect_sensor = { noise = 0.0; dropout = 0.0 }

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
  let module Event = Aspipe_obs.Event in
  let sense truth =
    if Variate.bernoulli rng ~p:sensor.dropout then None
    else begin
      let observed =
        if sensor.noise = 0.0 then truth
        else truth *. (1.0 +. Variate.normal rng ~mean:0.0 ~stddev:sensor.noise)
      in
      Some (Float.min 1.0 (Float.max 0.0 observed))
    end
  in
  Engine.periodic engine ~every (fun () ->
      for i = 0 to n - 1 do
        (* Heartbeat first: a crashed node does not answer its sensor at
           all — no sample, no rng draws — and each silent period counts
           toward failure suspicion. *)
        (if not (Node.up (Topology.node topo i)) then t.missed.(i) <- t.missed.(i) + 1
         else begin
           t.missed.(i) <- 0;
           match sense (Node.availability (Topology.node topo i)) with
           | Some observed ->
               if Aspipe_obs.Bus.active bus then begin
                 Aspipe_obs.Bus.emit bus
                   (Event.Monitor_sample { subject = Event.Node i; observed });
                 Aspipe_obs.Bus.emit bus
                   (Event.Forecast_update
                      {
                        subject = Event.Node i;
                        predicted = Forecast.predict t.forecasters.(i);
                        observed;
                      })
               end;
               Forecast.observe t.forecasters.(i) observed;
               t.samples <- t.samples + 1
           | None -> ()
         end);
        (match sense (Link.quality (Topology.user_link topo i)) with
        | Some observed ->
            if Aspipe_obs.Bus.active bus then
              Aspipe_obs.Bus.emit bus
                (Event.Monitor_sample { subject = Event.User_link i; observed });
            Forecast.observe t.user_link_forecasters.(i) observed;
            t.samples <- t.samples + 1
        | None -> ());
        for j = 0 to n - 1 do
          if i <> j then
            match sense (Link.quality (Topology.link topo ~src:i ~dst:j)) with
            | Some observed ->
                if Aspipe_obs.Bus.active bus then
                  Aspipe_obs.Bus.emit bus
                    (Event.Monitor_sample
                       { subject = Event.Link { src = i; dst = j }; observed });
                Forecast.observe t.link_forecasters.(i).(j) observed;
                t.samples <- t.samples + 1
            | None -> ()
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
