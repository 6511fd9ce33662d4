(* The clock sits in a record of its own: an all-float record is stored
   flat, so advancing the clock stores an unboxed float instead of
   allocating a box per event. *)
type clock = { mutable now : float }

type t = {
  queue : (unit -> unit) Pqueue.t;
  clock : clock;
  bus : Aspipe_obs.Bus.t;
}

let now t = t.clock.now

type handle = Pqueue.handle

let none = Pqueue.none

let create () =
  let t = { queue = Pqueue.create (); clock = { now = 0.0 }; bus = Aspipe_obs.Bus.create () } in
  Aspipe_obs.Bus.set_clock t.bus (fun () -> t.clock.now);
  t

let bus t = t.bus

let schedule_at t ~time f =
  if not (Float.is_finite time) then invalid_arg "Engine.schedule_at: non-finite time";
  if time < t.clock.now then invalid_arg "Engine.schedule_at: time in the past";
  Pqueue.add t.queue time f

(* NaN fails both comparisons. *)
let check_delay delay =
  if not (delay >= 0.0 && delay < infinity) then
    invalid_arg "Engine.schedule: delay must be finite and non-negative"

(* A finite non-negative delay added to a finite clock passes the
   [schedule_at] validation by construction — insert directly. *)
let[@inline] schedule t ~delay f =
  check_delay delay;
  Pqueue.add t.queue (t.clock.now +. delay) f

let[@inline] schedule_cancellable t ~delay f =
  check_delay delay;
  Pqueue.insert t.queue (t.clock.now +. delay) f

(* Only the next instant of a series sits in the queue. The series takes
   its whole block of tie-break numbers up front, so instant [i] pops
   exactly where the [i]-th of [n] eager [schedule_at] calls made now would
   have: after everything scheduled before the call, before everything
   scheduled after it, and in index order among equal instants. *)
let schedule_series t ~times f =
  let n = Array.length times in
  let floor = ref t.clock.now in
  Array.iter
    (fun time ->
      if not (Float.is_finite time) then invalid_arg "Engine.schedule_series: non-finite time";
      if time < !floor then
        invalid_arg "Engine.schedule_series: times must be non-decreasing and not in the past";
      floor := time)
    times;
  if n > 0 then begin
    let first = Pqueue.reserve t.queue n in
    let next = ref 0 in
    let rec fire () =
      let i = !next in
      next := i + 1;
      if i + 1 < n then Pqueue.add_reserved t.queue times.(i + 1) ~seq:(first + i + 1) fire;
      f i
    in
    Pqueue.add_reserved t.queue times.(0) ~seq:first fire
  end

let cancel = Pqueue.cancel

(* The event loop body: pop (allocation-free) and fire. [pop_min] fuses the
   old peek+pop pair into one heap traversal, and the popped entry is read
   back through [popped_key]/[popped_value] before the callback can touch
   the queue. *)
let[@inline] fire t =
  t.clock.now <- Pqueue.popped_key t.queue;
  let f = Pqueue.popped_value t.queue in
  f ()

(* layout: out of line (DESIGN "Code layout") *)
let[@inline never] step t =
  if Pqueue.pop_min t.queue ~horizon:infinity then begin
    fire t;
    true
  end
  else false

(* layout: out of line (DESIGN "Code layout") *)
let[@inline never] run ?until t =
  match until with
  | None -> while Pqueue.pop_min t.queue ~horizon:infinity do fire t done
  | Some horizon ->
      while Pqueue.pop_min t.queue ~horizon do fire t done;
      if t.clock.now < horizon then t.clock.now <- horizon

let periodic t ?start ~every f =
  if every <= 0.0 then invalid_arg "Engine.periodic: period must be positive";
  let first = match start with Some s -> s | None -> t.clock.now +. every in
  let rec tick () = if f () then schedule t ~delay:every tick in
  schedule_at t ~time:first tick
