module Policy = Aspipe_core.Policy

type t = { name : string; fresh : unit -> Policy.t }

let name t = t.name
let fresh t = t.fresh ()

let static () = { name = "static"; fresh = (fun () -> Policy.never ()) }

let remap_on_divergence ?drop () =
  { name = "remap-on-divergence"; fresh = (fun () -> Policy.threshold ?drop ()) }

let queue_length ?high ?low () =
  { name = "queue-length"; fresh = (fun () -> Policy.queue_length ?high ?low ()) }

let latency_gradient () =
  { name = "latency-gradient"; fresh = (fun () -> Policy.latency_gradient ()) }
