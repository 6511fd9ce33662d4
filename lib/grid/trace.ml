type service = { item : int; stage : int; node : int; start : float; finish : float }
type transfer = { item : int; from_stage : int; src : int; dst : int; start : float; finish : float }
type adaptation = {
  at : float;
  mapping_before : int array;
  mapping_after : int array;
  predicted_gain : float;
  migration_cost : float;
}

type t = {
  mutable services : service list;
  mutable transfers : transfer list;
  mutable completed : int;
  mutable completed_items : int array;
  mutable completed_at : float array;
  mutable adaptations : adaptation list;
  mutable first_start : float array;
  mutable arrivals : float array;
      (* open-arrival stamps from Sojourn events; preferred over first_start
         when present, so serving traces measure the full queueing delay *)
}
(* Completion [k], in recording order, is item [completed_items.(k)] at
   [completed_at.(k)], for [k < completed]; both columns double when full.
   [first_start] and [arrivals] are columns indexed by item id, NaN where
   nothing is recorded. They start with 64 slots and grow, at least
   doubling, to the largest id recorded. *)

let create () =
  {
    services = [];
    transfers = [];
    completed = 0;
    completed_items = Array.make 64 0;
    completed_at = Array.make 64 0.0;
    adaptations = [];
    first_start = Array.make 64 nan;
    arrivals = Array.make 64 nan;
  }

(* [column] long enough to index [item], NaN beyond its old end. *)
let grow name column item =
  if item < 0 then invalid_arg (name ^ ": item ids must be non-negative");
  let n = Array.length column in
  let grown = Array.make (Int.max (item + 1) (2 * n)) nan in
  Array.blit column 0 grown 0 n;
  grown

let record_entry t ~item ~time =
  if item < 0 || item >= Array.length t.first_start then
    t.first_start <- grow "Trace.record_entry" t.first_start item;
  if Float.is_nan t.first_start.(item) then t.first_start.(item) <- time

let record_arrival t ~item ~time =
  if item < 0 || item >= Array.length t.arrivals then
    t.arrivals <- grow "Trace.record_arrival" t.arrivals item;
  if Float.is_nan t.arrivals.(item) then t.arrivals.(item) <- time

let record_service t (s : service) =
  record_entry t ~item:s.item ~time:s.start;
  t.services <- s :: t.services

let record_transfer t (tr : transfer) = t.transfers <- tr :: t.transfers
let record_completion t ~item ~time =
  let k = t.completed in
  if k = Array.length t.completed_at then begin
    t.completed_items <- Array.append t.completed_items (Array.make k 0);
    t.completed_at <- Array.append t.completed_at (Array.make k 0.0)
  end;
  t.completed_items.(k) <- item;
  t.completed_at.(k) <- time;
  t.completed <- k + 1
let record_adaptation t a = t.adaptations <- a :: t.adaptations

(* The full-stream path: as one sink among others on the event bus, the
   trace rebuilds every record list, services and transfers included, from
   the simulator's events. Subscribing turns the bus's guarded per-item
   emits on; a summary needs only what the simulator records directly. *)
let subscribe t bus =
  let module Event = Aspipe_obs.Event in
  Aspipe_obs.Bus.subscribe bus (fun (event : Event.t) ->
      match event.payload with
      | Event.Service_finish { item; stage; node; start } ->
          record_service t { item; stage; node; start; finish = event.time }
      | Event.Transfer { item; from_stage; src; dst; start; bytes = _ } ->
          record_transfer t { item; from_stage; src; dst; start; finish = event.time }
      | Event.Completion { item } -> record_completion t ~item ~time:event.time
      | Event.Sojourn { item; arrival } -> record_arrival t ~item ~time:arrival
      | Event.Adaptation_committed
          { mapping_before; mapping_after; predicted_gain; migration_cost } ->
          record_adaptation t
            { at = event.time; mapping_before; mapping_after; predicted_gain; migration_cost }
      | Event.Service_start _ | Event.Slo_window _ | Event.Queue_sample _
      | Event.Calibration_sample _ | Event.Monitor_sample _ | Event.Forecast_update _
      | Event.Adaptation_considered _ | Event.Adaptation_rejected _ | Event.Node_crashed _
      | Event.Node_recovered _ | Event.Item_lost _ | Event.Item_redispatched _
      | Event.Failover_committed _ ->
          ())

let completions t = Array.init t.completed (fun k -> (t.completed_items.(k), t.completed_at.(k)))
let items_completed t = t.completed
(* layout: out of line (DESIGN "Code layout") *)
let[@inline never] makespan t = if t.completed = 0 then 0.0 else t.completed_at.(t.completed - 1)

let throughput t =
  let span = makespan t in
  if span <= 0.0 then 0.0 else Float.of_int (items_completed t) /. span

(* layout: out of line (DESIGN "Code layout") *)
let[@inline never] throughput_after t t0 =
  let late = ref 0 in
  for k = 0 to t.completed - 1 do
    if t.completed_at.(k) >= t0 then incr late
  done;
  let span = makespan t in
  if !late = 0 || span <= t0 then 0.0 else Float.of_int !late /. (span -. t0)

let throughput_series t ~window =
  if window <= 0.0 then invalid_arg "Trace.throughput_series: window must be positive";
  let span = makespan t in
  if span <= 0.0 then [||]
  else begin
    let nwin = int_of_float (Float.ceil (span /. window)) in
    let counts = Array.make nwin 0 in
    for k = 0 to t.completed - 1 do
      let w = Stdlib.min (nwin - 1) (int_of_float (t.completed_at.(k) /. window)) in
      counts.(w) <- counts.(w) + 1
    done;
    Array.mapi
      (fun k c -> ((Float.of_int k +. 0.5) *. window, Float.of_int c /. window))
      counts
  end

let services t = List.rev t.services

let service_times t ~stage =
  let times =
    List.filter_map
      (fun s -> if s.stage = stage then Some (s.finish -. s.start) else None)
      t.services
  in
  Array.of_list (List.rev times)

let transfers t = List.rev t.transfers
let adaptations t = List.rev t.adaptations

let read column item = if item >= 0 && item < Array.length column then column.(item) else nan

(* An item's sojourn starts at its open-arrival stamp when one was recorded
   (Sojourn events carry it) and otherwise at its first service start — the
   only entry instant a closed-stream trace knows. NaN when neither is. *)
(* layout: out of line (DESIGN "Code layout") *)
let[@inline never] entered t item =
  let arrival = read t.arrivals item in
  if Float.is_nan arrival then read t.first_start item else arrival

(* layout: out of line (DESIGN "Code layout") *)
let[@inline never] sojourns t =
  let series = Array.make t.completed (0, 0.0) and found = ref 0 in
  for k = 0 to t.completed - 1 do
    let item = t.completed_items.(k) in
    let start = entered t item in
    if not (Float.is_nan start) then begin
      series.(!found) <- (item, t.completed_at.(k) -. start);
      incr found
    end
  done;
  if !found = t.completed then series else Array.sub series 0 !found

(* Summed newest first, the order the recorded means were summed in, so
   they keep their bits. *)
(* layout: out of line (DESIGN "Code layout") *)
let[@inline never] mean_sojourn t =
  let total = ref 0.0 and count = ref 0 in
  for k = t.completed - 1 downto 0 do
    let start = entered t t.completed_items.(k) in
    if not (Float.is_nan start) then begin
      total := !total +. (t.completed_at.(k) -. start);
      incr count
    end
  done;
  if !count = 0 then nan else !total /. Float.of_int !count
