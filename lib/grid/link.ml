module Engine = Aspipe_des.Engine

type t = { engine : Engine.t; latency : float; bandwidth : float; mutable quality : float }

let create engine ~latency ~bandwidth () =
  if latency < 0.0 then invalid_arg "Link.create: negative latency";
  if bandwidth <= 0.0 then invalid_arg "Link.create: bandwidth must be positive";
  { engine; latency; bandwidth; quality = 1.0 }

let local engine = create engine ~latency:1e-4 ~bandwidth:1e10 ()

let latency t = t.latency
let bandwidth t = t.bandwidth
let quality t = t.quality
let set_quality t q = t.quality <- Float.min 1.0 (Float.max 0.01 q)

let effective_latency t = t.latency /. quality t
let effective_bandwidth t = t.bandwidth *. quality t

let transfer_time t ~bytes = effective_latency t +. (bytes /. effective_bandwidth t)

(* Out of line: the one copy of the schedule path every simulator transfer
   site calls, instead of an inlined copy at each (DESIGN "Code layout"). *)
let[@inline never] transfer t ~bytes k =
  if bytes < 0.0 then invalid_arg "Link.transfer: negative size";
  Engine.schedule t.engine ~delay:(transfer_time t ~bytes) k
