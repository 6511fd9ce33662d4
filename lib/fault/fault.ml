module Engine = Aspipe_des.Engine
module Rng = Aspipe_util.Rng
module Variate = Aspipe_util.Variate
module Topology = Aspipe_grid.Topology
module Node = Aspipe_grid.Node
module Link = Aspipe_grid.Link

type profile =
  | Crash_at of float
  | Crash_recover of { at : float; duration : float }
  | Windows of (float * float) list
  | Poisson of { mtbf : float; mttr : float }

let pp_profile ppf = function
  | Crash_at t -> Format.fprintf ppf "crash(at=%g)" t
  | Crash_recover { at; duration } -> Format.fprintf ppf "crash(at=%g,for=%g)" at duration
  | Windows ws -> Format.fprintf ppf "windows(%d)" (List.length ws)
  | Poisson { mtbf; mttr } -> Format.fprintf ppf "poisson(mtbf=%g,mttr=%g)" mtbf mttr

(* Every number must be finite: a NaN slips past the range checks (every
   comparison with it is false) and an infinity passes them, and either one
   crashes the schedule or silently disables it instead of being refused. *)
let finite name v =
  if not (Float.is_finite v) then
    invalid_arg (Printf.sprintf "Fault: %s must be finite (got %g)" name v)

let validate = function
  | Crash_at t ->
      finite "crash time" t;
      if t < 0.0 then invalid_arg "Fault: crash time must be non-negative"
  | Crash_recover { at; duration } ->
      finite "crash time" at;
      finite "crash duration" duration;
      if at < 0.0 || duration <= 0.0 then
        invalid_arg "Fault: crash window needs at >= 0 and duration > 0"
  | Windows ws ->
      List.iter
        (fun (at, duration) ->
          finite "window start" at;
          finite "window duration" duration;
          if at < 0.0 || duration <= 0.0 then
            invalid_arg "Fault: every window needs at >= 0 and duration > 0")
        ws
  | Poisson { mtbf; mttr } ->
      finite "mtbf" mtbf;
      finite "mttr" mttr;
      if mtbf <= 0.0 || mttr <= 0.0 then invalid_arg "Fault: mtbf and mttr must be positive"

(* A Poisson schedule is planned whole, up front, one pair of events per
   crash–repair cycle, so the expected number of cycles before the horizon
   is what planning it costs in time and memory. *)
let max_planned_cycles = 1e6

let check_horizon ~horizon = function
  | Poisson { mtbf; mttr } ->
      let cycles = horizon /. (mtbf +. mttr) in
      if not (cycles <= max_planned_cycles) then
        invalid_arg
          (Printf.sprintf
             "Fault: mtbf=%g,mttr=%g expects %.3g crash-repair cycles before the horizon (%g s); \
              at most %g are planned"
             mtbf mttr cycles horizon max_planned_cycles)
  | Crash_at _ | Crash_recover _ | Windows _ -> ()

let require_rng = function
  | Some rng -> rng
  | None -> invalid_arg "Fault: the Poisson profile is stochastic and needs ~rng"

(* Translate a profile into timed down/up transitions on the engine. The
   same driver serves nodes (down = crashed) and links (down = partitioned),
   as [Loadgen.drive] serves node availability and link quality. *)
let drive ?rng ~horizon engine ~go_down ~go_up profile =
  validate profile;
  check_horizon ~horizon profile;
  let at time f =
    if time <= Engine.now engine then f ()
    else ignore (Engine.schedule_at engine ~time (fun () -> f ()))
  in
  match profile with
  | Crash_at t -> at t go_down
  | Crash_recover { at = t; duration } ->
      at t go_down;
      at (t +. duration) go_up
  | Windows ws ->
      List.iter
        (fun (t, duration) ->
          at t go_down;
          at (t +. duration) go_up)
        ws
  | Poisson { mtbf; mttr } ->
      let rng = require_rng rng in
      (* Alternating exponential up/down holds: the classic crash–repair
         renewal process. All draws happen up front, so the schedule is a
         pure function of the seed regardless of how the run unfolds. *)
      let rec plan t0 =
        let crash = t0 +. Variate.exponential rng ~rate:(1.0 /. mtbf) in
        if crash < horizon then begin
          let recover = crash +. Variate.exponential rng ~rate:(1.0 /. mttr) in
          at crash go_down;
          at recover go_up;
          plan recover
        end
      in
      plan (Engine.now engine)

let apply_node ?rng ~horizon topo i profile =
  let node = Topology.node topo i in
  drive ?rng ~horizon (Topology.engine topo)
    ~go_down:(fun () -> Node.set_up node false)
    ~go_up:(fun () -> Node.set_up node true)
    profile

(* A partition drives both directions of the pair to the quality floor
   (Link.set_quality clamps at 0.01): the link is effectively black-holed —
   transfers crawl rather than vanish, which keeps the simulation free of
   undeliverable messages while still starving whatever depends on the
   link. *)
let apply_link ?rng ~horizon topo a b profile =
  let forward = Topology.link topo ~src:a ~dst:b in
  let backward = Topology.link topo ~src:b ~dst:a in
  drive ?rng ~horizon (Topology.engine topo)
    ~go_down:(fun () ->
      Link.set_quality forward 0.0;
      Link.set_quality backward 0.0)
    ~go_up:(fun () ->
      Link.set_quality forward 1.0;
      Link.set_quality backward 1.0)
    profile

(* CLI grammar: "0:crash@120;2:crash@50+30;1:mtbf=500,mttr=50;
   3:windows=10+5,40+5". One [target:profile] clause per ';'. *)
let parse_profile s =
  let fail () = invalid_arg (Printf.sprintf "Fault.parse_spec: cannot parse %S" s) in
  let float_of s = match float_of_string_opt (String.trim s) with Some f -> f | None -> fail () in
  let s = String.trim s in
  if String.length s > 6 && String.sub s 0 6 = "crash@" then begin
    let rest = String.sub s 6 (String.length s - 6) in
    match String.index_opt rest '+' with
    | None -> Crash_at (float_of rest)
    | Some k ->
        Crash_recover
          {
            at = float_of (String.sub rest 0 k);
            duration = float_of (String.sub rest (k + 1) (String.length rest - k - 1));
          }
  end
  else if String.length s > 5 && String.sub s 0 5 = "mtbf=" then begin
    match String.split_on_char ',' s with
    | [ mtbf_part; mttr_part ] ->
        let value part prefix =
          if
            String.length part > String.length prefix
            && String.sub part 0 (String.length prefix) = prefix
          then float_of (String.sub part (String.length prefix) (String.length part - String.length prefix))
          else fail ()
        in
        Poisson
          { mtbf = value (String.trim mtbf_part) "mtbf="; mttr = value (String.trim mttr_part) "mttr=" }
    | _ -> fail ()
  end
  else if String.length s > 8 && String.sub s 0 8 = "windows=" then begin
    let rest = String.sub s 8 (String.length s - 8) in
    let window w =
      match String.index_opt w '+' with
      | Some k ->
          (float_of (String.sub w 0 k), float_of (String.sub w (k + 1) (String.length w - k - 1)))
      | None -> fail ()
    in
    Windows (List.map window (String.split_on_char ',' rest))
  end
  else fail ()

let parse_spec spec =
  let clause s =
    let s = String.trim s in
    match String.index_opt s ':' with
    | Some k ->
        let node =
          match int_of_string_opt (String.trim (String.sub s 0 k)) with
          | Some n when n >= 0 -> n
          | Some _ | None ->
              invalid_arg (Printf.sprintf "Fault.parse_spec: bad node index in %S" s)
        in
        let profile = parse_profile (String.sub s (k + 1) (String.length s - k - 1)) in
        validate profile;
        (node, profile)
    | None -> invalid_arg (Printf.sprintf "Fault.parse_spec: missing ':' in clause %S" s)
  in
  match
    spec |> String.split_on_char ';'
    |> List.filter (fun s -> String.trim s <> "")
    |> List.map clause
  with
  | [] -> invalid_arg "Fault.parse_spec: empty fault spec"
  | schedule -> schedule
