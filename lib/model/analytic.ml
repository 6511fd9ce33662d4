type bottleneck = Processor of int | Stage_cycle of int

let pp_bottleneck ppf = function
  | Processor p -> Format.fprintf ppf "processor %d" p
  | Stage_cycle i -> Format.fprintf ppf "stage %d cycle" i

let stage_cycle_time spec m i =
  let service =
    let rate = Costspec.service_rate spec m i in
    if rate = infinity then 0.0 else 1.0 /. rate
  in
  let move_out =
    let rate = Costspec.move_rate spec m (i + 1) in
    if rate = infinity then 0.0 else 1.0 /. rate
  in
  service +. move_out

(* Every station with its items/s capacity under [m]. *)
let stations spec m =
  let ns = Costspec.stages spec in
  let np = Costspec.processors spec in
  let work_per_processor = Array.make np 0.0 in
  Array.iteri
    (fun i w ->
      let p = Mapping.processor_of m i in
      work_per_processor.(p) <- work_per_processor.(p) +. w)
    spec.Costspec.stage_work;
  let processor_stations =
    List.filter_map
      (fun p ->
        if work_per_processor.(p) <= 0.0 then None
        else Some (Processor p, spec.Costspec.node_rates.(p) /. work_per_processor.(p)))
      (List.init np Fun.id)
  in
  let cycle_stations =
    List.map
      (fun i ->
        let cycle = stage_cycle_time spec m i in
        (Stage_cycle i, if cycle <= 0.0 then infinity else 1.0 /. cycle))
      (List.init ns Fun.id)
  in
  processor_stations @ cycle_stations

let bottleneck spec m =
  match stations spec m with
  | [] -> invalid_arg "Analytic.bottleneck: no stations"
  | first :: rest ->
      List.fold_left (fun (bs, br) (s, r) -> if r < br then (s, r) else (bs, br)) first rest

let throughput spec m = snd (bottleneck spec m)

(* A stage's share of a cycle: its output move as [stage_cycle_time] takes
   it from [Costspec.move_rate], given the transfer time. *)
let[@inline] move_share time =
  let rate = if time <= 0.0 then infinity else 1.0 /. time in
  if rate = infinity then 0.0 else 1.0 /. rate

(* A stage cycle station with the given work, sharing count and move share:
   the float operations of [Costspec.service_rate], [stage_cycle_time] and
   [stations], in their order. [Incr] scores every cycle through it. *)
let[@inline] cycle_station ~rate ~work ~sharing move =
  let service =
    let r = if work <= 0.0 then infinity else rate /. (work *. Float.of_int sharing) in
    if r = infinity then 0.0 else 1.0 /. r
  in
  let cycle = service +. move in
  if cycle <= 0.0 then infinity else 1.0 /. cycle

(* The smallest move share any stage can have under any mapping: the last
   stage's user links and every interior move over every link. NaN
   propagates through [Float.min]. *)
let cheapest_move spec =
  let ns = Costspec.stages spec and np = Costspec.processors spec in
  let out = spec.Costspec.output_bytes in
  let low = ref infinity in
  for p = 0 to np - 1 do
    let time =
      spec.Costspec.user_latency.(p) +. (out.(ns - 1) /. spec.Costspec.user_bandwidth.(p))
    in
    low := Float.min !low (move_share time)
  done;
  for i = 0 to ns - 2 do
    for src = 0 to np - 1 do
      for dst = 0 to np - 1 do
        low := Float.min !low (move_share (Costspec.transfer_cost spec ~src ~dst ~bytes:out.(i)))
      done
    done
  done;
  !low

(* The smaller of two terms, each at least every mapping's score in float
   arithmetic (see the interface). A processor's work sum is a left fold of
   non-negative works, and every step of a station's formula is monotone
   in float arithmetic: [fl (a +. b)] in each argument, [fl (r /. x)] in
   [x], the reciprocals and the [infinity] cases. So putting [w_min] in
   place of each work and the cheapest move in place of each move gives
   stations no lower than the mapping's.

   - Dealing: [station p k] bounds the processor station and every cycle
     station of a processor hosting [k] stages, and never rises with [k].
     Deal [ns] stages, each to the processor whose station stays highest
     after the add. The stations taken never rise along the deal, so its
     minimum is the [ns]-th largest station any distribution of [ns]
     stages could reach: no distribution has a higher minimum.
   - Largest stage: the heaviest stage's host carries at least [w_max],
     and its cycle serves [w_max] at no more than the fastest rate. *)
let upper_bound spec =
  let works = spec.Costspec.stage_work and rates = spec.Costspec.node_rates in
  let np = Array.length rates in
  let w_min = Array.fold_left Float.min infinity works in
  let w_max = Array.fold_left Float.max 0.0 works in
  let r_max = Array.fold_left Float.max 0.0 rates in
  let move = cheapest_move spec in
  if (not (Float.is_finite w_max)) || Float.is_nan r_max || Float.is_nan move then infinity
  else begin
    let largest =
      if w_max <= 0.0 then infinity
      else Float.min (r_max /. w_max) (cycle_station ~rate:r_max ~work:w_max ~sharing:1 move)
    in
    let fill = Array.make np 0.0 and count = Array.make np 0 in
    let station p ~fill ~count =
      let cycle = cycle_station ~rate:rates.(p) ~work:w_min ~sharing:count move in
      if w_min <= 0.0 then cycle else Float.min (rates.(p) /. fill) cycle
    in
    for _ = 1 to Array.length works do
      let best = ref 0 and best_rate = ref neg_infinity in
      for p = 0 to np - 1 do
        let rate = station p ~fill:(fill.(p) +. w_min) ~count:(count.(p) + 1) in
        if rate > !best_rate then begin
          best := p;
          best_rate := rate
        end
      done;
      fill.(!best) <- fill.(!best) +. w_min;
      count.(!best) <- count.(!best) + 1
    done;
    let dealing = ref infinity in
    for p = 0 to np - 1 do
      if count.(p) > 0 then begin
        let rate = station p ~fill:fill.(p) ~count:count.(p) in
        if rate < !dealing then dealing := rate
      end
    done;
    Float.min !dealing largest
  end

(* ------------------------------------------------------------------ *)
(* Incremental evaluation.

   [Incr] mirrors [stations] in flat float arrays and re-scores a
   single-stage move by touching only the affected entries. Every arithmetic
   expression below replicates the corresponding [Costspec] /
   [stage_cycle_time] formula operation-for-operation, in the same order, so
   scores are bit-identical to [throughput] — the qcheck differential battery
   in test_model pins this down. Two details carry the bit-identity:

   - per-processor work is {e re-summed} over stages in increasing index
     order after a move (never delta-adjusted), because float addition does
     not commute with subtraction and [stations] folds in stage order;
   - a processor hosting zero work is represented by an [infinity] station
     rather than excluded; [min] over stations is insensitive to the extra
     entries. *)
module Incr = struct
  type t = {
    spec : Costspec.t;
    ns : int;
    np : int;
    assign : int array; (* current stage -> processor map *)
    counts : int array; (* stages hosted per processor: O(1) sharing *)
    work : float array; (* per-processor work sums, stage-order folds *)
    proc_rate : float array; (* processor capacity stations *)
    cycle_rate : float array; (* stage-cycle stations *)
    (* Tracked minimum over both station arrays, recomputed lazily when the
       station holding it moves up. Station ids: [0, np) are processors,
       [np, np + ns) are stage cycles. *)
    mutable min_rate : float;
    mutable min_station : int;
    mutable min_valid : bool;
  }

  let note t station rate =
    if t.min_valid then begin
      if rate <= t.min_rate then begin
        t.min_rate <- rate;
        t.min_station <- station
      end
      else if station = t.min_station then t.min_valid <- false
    end

  let resum_work t p =
    let s = ref 0.0 in
    for i = 0 to t.ns - 1 do
      if t.assign.(i) = p then s := !s +. t.spec.Costspec.stage_work.(i)
    done;
    t.work.(p) <- !s

  let set_proc t p =
    let rate =
      if t.work.(p) <= 0.0 then infinity
      else t.spec.Costspec.node_rates.(p) /. t.work.(p)
    in
    t.proc_rate.(p) <- rate;
    note t p rate

  (* [stage_cycle_time] + the cycle-station rate from [stations]:
     [Costspec.service_rate] with the given sharing count, then
     [Costspec.move_rate] of the output move. Only [assign.(i)] and
     [assign.(i + 1)] are read. *)
  let[@inline] cycle_rate spec assign ~sharing i =
    let ns = Array.length assign in
    let p = assign.(i) in
    let time =
      if i = ns - 1 then
        spec.Costspec.user_latency.(p)
        +. (spec.Costspec.output_bytes.(i) /. spec.Costspec.user_bandwidth.(p))
      else begin
        let dst = assign.(i + 1) in
        spec.Costspec.latency.(p).(dst)
        +. (spec.Costspec.output_bytes.(i) /. spec.Costspec.bandwidth.(p).(dst))
      end
    in
    cycle_station ~rate:spec.Costspec.node_rates.(p) ~work:spec.Costspec.stage_work.(i) ~sharing
      (move_share time)

  let set_cycle t i =
    let rate = cycle_rate t.spec t.assign ~sharing:t.counts.(t.assign.(i)) i in
    t.cycle_rate.(i) <- rate;
    note t (t.np + i) rate

  let refresh_min t =
    let best = ref infinity and station = ref 0 in
    for p = 0 to t.np - 1 do
      if t.proc_rate.(p) < !best then begin
        best := t.proc_rate.(p);
        station := p
      end
    done;
    for i = 0 to t.ns - 1 do
      if t.cycle_rate.(i) < !best then begin
        best := t.cycle_rate.(i);
        station := t.np + i
      end
    done;
    t.min_rate <- !best;
    t.min_station <- !station;
    t.min_valid <- true

  let create spec m =
    let ns = Costspec.stages spec and np = Costspec.processors spec in
    if Mapping.stages m <> ns then invalid_arg "Analytic.Incr.create: stage count mismatch";
    let assign = Mapping.to_array m in
    let t =
      {
        spec;
        ns;
        np;
        assign;
        counts = Array.make np 0;
        work = Array.make np 0.0;
        proc_rate = Array.make np infinity;
        cycle_rate = Array.make ns infinity;
        min_rate = infinity;
        min_station = 0;
        min_valid = false;
      }
    in
    Array.iter (fun p -> t.counts.(p) <- t.counts.(p) + 1) assign;
    for p = 0 to np - 1 do
      resum_work t p;
      set_proc t p
    done;
    for i = 0 to ns - 1 do
      set_cycle t i
    done;
    t

  let move t ~stage q =
    if stage < 0 || stage >= t.ns then invalid_arg "Analytic.Incr.move: stage out of range";
    if q < 0 || q >= t.np then invalid_arg "Analytic.Incr.move: processor out of range";
    let p = t.assign.(stage) in
    if p <> q then begin
      t.assign.(stage) <- q;
      t.counts.(p) <- t.counts.(p) - 1;
      t.counts.(q) <- t.counts.(q) + 1;
      resum_work t p;
      resum_work t q;
      set_proc t p;
      set_proc t q;
      (* Cycles whose service sharing or either move endpoint changed: every
         stage still (or now) on [p] or [q], plus the predecessor of the moved
         stage, whose output move re-targets. *)
      for j = 0 to t.ns - 1 do
        if t.assign.(j) = p || t.assign.(j) = q || j = stage - 1 then set_cycle t j
      done
    end

  let score t =
    if not t.min_valid then refresh_min t;
    t.min_rate

  let assignment t i = t.assign.(i)
  let mapping t = Mapping.of_array ~processors:t.np t.assign
end
