type t = {
  stages : int;
  states : int;
  service_rates : float array;
  offsets : int array;
      (* state [s]'s transitions are entries [offsets.(s)] .. [offsets.(s + 1) - 1]
         of [targets] and [rates], newest-added first *)
  targets : int array;
  rates : float array;
  outflow : float array;  (* total exit rate per state *)
}

(* Phases: 0 = awaiting input move, 1 = ready to process, 2 = awaiting
   output move. State encoding: little-endian base 3, digit i = stage i. *)

let pow3 n =
  let rec go acc n = if n = 0 then acc else go (acc * 3) (n - 1) in
  go 1 n

let digit state i = state / pow3 i mod 3

(* layout: out of line (DESIGN "Code layout") *)
let[@inline never] with_digit state i d =
  let p = pow3 i in
  state + ((d - (state / p mod 3)) * p)

let clamp_rate r =
  if Float.is_nan r || r <= 0.0 then invalid_arg "Ctmc: rates must be positive"
  else if r = infinity then 1e12
  else r

(* Calls [add target rate] for every transition out of [s], in a fixed
   order: processing, the input move, interior moves, the output move. *)
let iter_transitions ~ns ~mu ~lambda s add =
  for i = 0 to ns - 1 do
    if digit s i = 1 then add (with_digit s i 2) mu.(i)
  done;
  if digit s 0 = 0 then add (with_digit s 0 1) lambda.(0);
  (* interior moves: stage e-1 puts, stage e gets *)
  for e = 1 to ns - 1 do
    if digit s (e - 1) = 2 && digit s e = 0 then
      add (with_digit (with_digit s (e - 1) 0) e 1) lambda.(e)
  done;
  if digit s (ns - 1) = 2 then add (with_digit s (ns - 1) 0) lambda.(ns)

let build ~service_rates ~move_rates =
  let ns = Array.length service_rates in
  if ns = 0 then invalid_arg "Ctmc.build: no stages";
  if ns > 13 then invalid_arg "Ctmc.build: too many stages for explicit state space";
  if Array.length move_rates <> ns + 1 then invalid_arg "Ctmc.build: move_rates must have Ns+1 entries";
  let mu = Array.map clamp_rate service_rates in
  let lambda = Array.map clamp_rate move_rates in
  let states = pow3 ns in
  (* Two passes: count each state's transitions, then fill them in. Within
     a state they are stored newest-added first, the order the sweeps have
     always summed them in; the outflow sums in the order they are added. *)
  let offsets = Array.make (states + 1) 0 in
  for s = 0 to states - 1 do
    let count = ref 0 in
    iter_transitions ~ns ~mu ~lambda s (fun _ _ -> incr count);
    offsets.(s + 1) <- offsets.(s) + !count
  done;
  let total = offsets.(states) in
  let targets = Array.make total 0 and rates = Array.make total 0.0 in
  let outflow = Array.make states 0.0 in
  for s = 0 to states - 1 do
    let slot = ref offsets.(s + 1) in
    iter_transitions ~ns ~mu ~lambda s (fun target rate ->
        decr slot;
        targets.(!slot) <- target;
        rates.(!slot) <- rate;
        outflow.(s) <- outflow.(s) +. rate)
  done;
  { stages = ns; states; service_rates = mu; offsets; targets; rates; outflow }

let of_costspec spec m =
  let ns = Costspec.stages spec in
  build
    ~service_rates:(Array.init ns (Costspec.service_rate spec m))
    ~move_rates:(Array.init (ns + 1) (Costspec.move_rate spec m))

type solver = Gauss_seidel | Power

(* The sweeps below are plain loops over flat arrays: no closure and no
   boxed float per state or transition, so a solve allocates only its
   vectors. Every sum runs in a fixed order (a state's transitions newest
   added first), and the differential tests pin the results bit for bit. *)

(* layout: out of line (DESIGN "Code layout") *)
let[@inline never] sum a =
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. a.(i)
  done;
  !acc

let steady_state_power ~tol ~max_iter t =
  let n = t.states in
  let max_outflow = ref 0.0 in
  for s = 0 to n - 1 do
    max_outflow := Float.max !max_outflow t.outflow.(s)
  done;
  let uniform = !max_outflow *. 1.001 in
  if uniform <= 0.0 then failwith "Ctmc.steady_state: chain has no transitions";
  let pi = Array.make n (1.0 /. Float.of_int n) in
  let next = Array.make n 0.0 in
  let k = ref 1 and converged = ref false in
  while not !converged do
    Array.fill next 0 n 0.0;
    for s = 0 to n - 1 do
      let mass = pi.(s) in
      if mass > 0.0 then begin
        next.(s) <- next.(s) +. (mass *. (1.0 -. (t.outflow.(s) /. uniform)));
        for e = t.offsets.(s) to t.offsets.(s + 1) - 1 do
          let target = t.targets.(e) in
          next.(target) <- next.(target) +. (mass *. t.rates.(e) /. uniform)
        done
      end
    done;
    let diff = ref 0.0 in
    for s = 0 to n - 1 do
      diff := !diff +. Float.abs (next.(s) -. pi.(s));
      pi.(s) <- next.(s)
    done;
    if !diff > tol then
      if !k >= max_iter then failwith "Ctmc.steady_state: no convergence" else incr k
    else converged := true
  done;
  let total = sum pi in
  Array.map (fun p -> p /. total) pi

let steady_state_gauss_seidel ~tol ~max_iter t =
  (* Gauss–Seidel on the balance equations π_j · outflow_j = Σ_i π_i q_ij.
     Unlike uniformized power iteration, convergence does not degrade when
     rates span many orders of magnitude (local moves vs slow services). *)
  let n = t.states in
  (* Incoming transitions per target state, flat like the outgoing ones.
     Each target's entries are ordered by source descending and, within a
     source, in the order its transitions were added; the inflow sums run
     in that order. *)
  let in_offsets = Array.make (n + 1) 0 in
  Array.iter (fun target -> in_offsets.(target + 1) <- in_offsets.(target + 1) + 1) t.targets;
  for j = 0 to n - 1 do
    in_offsets.(j + 1) <- in_offsets.(j + 1) + in_offsets.(j)
  done;
  let fill = Array.sub in_offsets 0 n in
  let sources = Array.make (Array.length t.targets) 0 in
  let in_rates = Array.make (Array.length t.targets) 0.0 in
  for s = n - 1 downto 0 do
    for e = t.offsets.(s + 1) - 1 downto t.offsets.(s) do
      let target = t.targets.(e) in
      sources.(fill.(target)) <- s;
      in_rates.(fill.(target)) <- t.rates.(e);
      fill.(target) <- fill.(target) + 1
    done
  done;
  let pi = Array.make n (1.0 /. Float.of_int n) in
  let k = ref 1 and converged = ref false in
  while not !converged do
    let diff = ref 0.0 in
    for j = 0 to n - 1 do
      if t.outflow.(j) > 0.0 then begin
        let inflow = ref 0.0 in
        for e = in_offsets.(j) to in_offsets.(j + 1) - 1 do
          inflow := !inflow +. (pi.(sources.(e)) *. in_rates.(e))
        done;
        let updated = !inflow /. t.outflow.(j) in
        diff := !diff +. Float.abs (updated -. pi.(j));
        pi.(j) <- updated
      end
      else pi.(j) <- 0.0
    done;
    (* Renormalize each sweep so the fixed point is a distribution. *)
    let total = sum pi in
    if total > 0.0 then
      for j = 0 to n - 1 do
        pi.(j) <- pi.(j) /. total
      done;
    if !diff > tol then
      if !k >= max_iter then failwith "Ctmc.steady_state: no convergence" else incr k
    else converged := true
  done;
  pi

let steady_state ?(solver = Gauss_seidel) ?(max_iter = 200_000) t =
  let tol = 1e-12 in
  match solver with
  | Gauss_seidel -> steady_state_gauss_seidel ~tol ~max_iter t
  | Power -> steady_state_power ~tol ~max_iter t

let throughput ?solver ?max_iter t =
  let pi = steady_state ?solver ?max_iter t in
  let processing_mass = ref 0.0 in
  for s = 0 to t.states - 1 do
    if digit s 0 = 1 then processing_mass := !processing_mass +. pi.(s)
  done;
  t.service_rates.(0) *. !processing_mass
