module Mapping = Aspipe_model.Mapping
module Costspec = Aspipe_model.Costspec
module Stage = Aspipe_skel.Stage

type t = { restart_penalty : float }

let default = { restart_penalty = 0.5 }

let stages_moving ~current ~target =
  if Mapping.stages current <> Mapping.stages target then
    invalid_arg "Migration.stages_moving: mapping lengths differ";
  List.filter
    (fun i -> Mapping.processor_of current i <> Mapping.processor_of target i)
    (List.init (Mapping.stages current) Fun.id)

let stall_seconds t ~spec ~stages ~current ~target =
  let moving = stages_moving ~current ~target in
  List.fold_left
    (fun acc i ->
      let src = Mapping.processor_of current i and dst = Mapping.processor_of target i in
      let bytes = stages.(i).Stage.state_bytes in
      let cost = Costspec.transfer_cost spec ~src ~dst ~bytes +. t.restart_penalty in
      Float.max acc cost)
    0.0 moving
