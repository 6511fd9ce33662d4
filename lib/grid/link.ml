module Engine = Aspipe_des.Engine
module Signal = Aspipe_des.Signal
module Server = Aspipe_des.Server

type t = {
  engine : Engine.t;
  latency : float;
  bandwidth : float;
  quality : Signal.t;
  pipe : Server.t option; (* present iff contended *)
}

let create engine ?(contended = false) ~latency ~bandwidth () =
  if latency < 0.0 then invalid_arg "Link.create: negative latency";
  if bandwidth <= 0.0 then invalid_arg "Link.create: bandwidth must be positive";
  let quality = Signal.create engine 1.0 in
  let pipe =
    if contended then begin
      (* The wire is a rate-modulated server whose rate tracks quality. *)
      let rate = Signal.create engine bandwidth in
      Signal.subscribe quality (fun ~old_value:_ ~new_value ->
          Signal.set rate (bandwidth *. new_value));
      Some (Server.create engine ~name:"link" ~rate)
    end
    else None
  in
  { engine; latency; bandwidth; quality; pipe }

let local engine = create engine ~latency:1e-4 ~bandwidth:1e10 ()

let latency t = t.latency
let bandwidth t = t.bandwidth
let quality t = Signal.get t.quality

let set_quality t q =
  let q = Float.min 1.0 (Float.max 0.01 q) in
  Signal.set t.quality q

let effective_latency t = t.latency /. quality t
let effective_bandwidth t = t.bandwidth *. quality t

let transfer_time t ~bytes = effective_latency t +. (bytes /. effective_bandwidth t)

let transfer t ~bytes k =
  if bytes < 0.0 then invalid_arg "Link.transfer: negative size";
  match t.pipe with
  | None -> ignore (Engine.schedule t.engine ~delay:(transfer_time t ~bytes) k)
  | Some pipe ->
      (* Bandwidth queues (at the live rate); latency is then paid on the wire. *)
      Server.submit pipe ~work:bytes (fun () ->
          ignore (Engine.schedule t.engine ~delay:(effective_latency t) k))

let quality_history t = Signal.history t.quality
