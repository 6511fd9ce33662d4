module Topology = Aspipe_grid.Topology
module Trace = Aspipe_grid.Trace
module Stream_spec = Aspipe_skel.Stream_spec
module Baselines = Aspipe_core.Baselines
module Stats = Aspipe_util.Stats

let default_latency = 0.01
let default_bandwidth = 1e7

let uniform_grid ~n ?(latency = default_latency) () engine =
  Topology.uniform engine ~n ~speed:10.0 ~latency ~bandwidth:default_bandwidth ()

let heterogeneous_grid ~speeds () engine =
  Topology.heterogeneous engine ~speeds ~latency:default_latency ~bandwidth:default_bandwidth ()

let batch_input ?(item_bytes = 1e4) ~items () = Stream_spec.make ~item_bytes ~items ()

let steady_throughput trace =
  let span = Trace.makespan trace in
  if span <= 0.0 then 0.0 else Trace.throughput_after trace (0.1 *. span)

let simulated_throughput ~scenario ~seed ~mapping =
  let outcome = Baselines.run_static ~label:"probe" ~mapping ~scenario ~seed in
  steady_throughput outcome.Baselines.trace

(* Mid-ranks: tied values share the average of the positions they span, the
   standard Spearman treatment, so identical tie groups in both columns
   cannot depress the correlation. *)
let ranks xs =
  let n = Array.length xs in
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> Float.compare xs.(a) xs.(b)) order;
  let rank = Array.make n 0.0 in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && xs.(order.(!j + 1)) = xs.(order.(!i)) do
      incr j
    done;
    let mid = Float.of_int (!i + !j) /. 2.0 in
    for k = !i to !j do
      rank.(order.(k)) <- mid
    done;
    i := !j + 1
  done;
  rank

let spearman a b =
  let n = Array.length a in
  if n <> Array.length b || n < 2 then invalid_arg "Common.spearman";
  let ra = ranks a and rb = ranks b in
  let mean = Float.of_int (n - 1) /. 2.0 in
  let num = ref 0.0 and da = ref 0.0 and db = ref 0.0 in
  for i = 0 to n - 1 do
    let xa = ra.(i) -. mean and xb = rb.(i) -. mean in
    num := !num +. (xa *. xb);
    da := !da +. (xa *. xa);
    db := !db +. (xb *. xb)
  done;
  if !da = 0.0 || !db = 0.0 then 0.0 else !num /. sqrt (!da *. !db)

let scale ~quick n = if quick then max 20 (n / 5) else n

let mean_ci values = Stats.confidence95 (Array.of_list values)

(* --------------------------------------------------- replication splitting *)

(* Experiments hand their independent replications / sweep points to
   [par_map]; by default it is [List.map], and the campaign runner installs
   a pool-backed implementation so sweep points run on worker domains.
   Results come back by index, so installing a parallel implementation can
   never reorder a table. *)

type par_map_impl = { pmap : 'a 'b. ('a -> 'b) -> 'a list -> 'b list }

let sequential_par_map = { pmap = (fun f xs -> List.map f xs) }

(* Installed once by the campaign runner before any worker starts, but the
   read happens on worker domains: the cell must be Atomic, not a ref, so
   the publication is a proper release/acquire pair. *)
let par_map_hook = Atomic.make sequential_par_map

let set_par_map impl = Atomic.set par_map_hook impl
let reset_par_map () = Atomic.set par_map_hook sequential_par_map

let par_map f xs = (Atomic.get par_map_hook).pmap f xs
