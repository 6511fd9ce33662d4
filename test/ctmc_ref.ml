(* Reference copy of the list-based CTMC that lib/model/ctmc replaced: per
   state a list of (target, rate) transitions, swept with closures. Kept
   so the differential tests can check the flat sweeps against it float
   for float, and so the tests can compute a balance residual. *)

type t = {
  stages : int;
  states : int;
  service_rates : float array;
  transitions : (int * float) list array;  (* per source state: (target, rate) *)
  outflow : float array;  (* total exit rate per state *)
}

(* Phases: 0 = awaiting input move, 1 = ready to process, 2 = awaiting
   output move. State encoding: little-endian base 3, digit i = stage i. *)

let pow3 n =
  let rec go acc n = if n = 0 then acc else go (acc * 3) (n - 1) in
  go 1 n

let digit state i = state / pow3 i mod 3

let with_digit state i d =
  let p = pow3 i in
  state + ((d - (state / p mod 3)) * p)

let clamp_rate r =
  if Float.is_nan r || r <= 0.0 then invalid_arg "Ctmc: rates must be positive"
  else if r = infinity then 1e12
  else r

let build ~service_rates ~move_rates =
  let ns = Array.length service_rates in
  if ns = 0 then invalid_arg "Ctmc.build: no stages";
  if ns > 13 then invalid_arg "Ctmc.build: too many stages for explicit state space";
  if Array.length move_rates <> ns + 1 then invalid_arg "Ctmc.build: move_rates must have Ns+1 entries";
  let mu = Array.map clamp_rate service_rates in
  let lambda = Array.map clamp_rate move_rates in
  let states = pow3 ns in
  let transitions = Array.make states [] in
  let outflow = Array.make states 0.0 in
  for s = 0 to states - 1 do
    let add target rate =
      transitions.(s) <- (target, rate) :: transitions.(s);
      outflow.(s) <- outflow.(s) +. rate
    in
    (* process_i *)
    for i = 0 to ns - 1 do
      if digit s i = 1 then add (with_digit s i 2) mu.(i)
    done;
    (* input move *)
    if digit s 0 = 0 then add (with_digit s 0 1) lambda.(0);
    (* interior moves: stage e-1 puts, stage e gets *)
    for e = 1 to ns - 1 do
      if digit s (e - 1) = 2 && digit s e = 0 then
        add (with_digit (with_digit s (e - 1) 0) e 1) lambda.(e)
    done;
    (* output move *)
    if digit s (ns - 1) = 2 then add (with_digit s (ns - 1) 0) lambda.(ns)
  done;
  { stages = ns; states; service_rates = mu; transitions; outflow }

type solver = Gauss_seidel | Power

let steady_state_power ~tol ~max_iter t =
  let n = t.states in
  let uniform = Array.fold_left Float.max 0.0 t.outflow *. 1.001 in
  if uniform <= 0.0 then failwith "Ctmc.steady_state: chain has no transitions";
  let pi = Array.make n (1.0 /. Float.of_int n) in
  let next = Array.make n 0.0 in
  let rec iterate k =
    Array.fill next 0 n 0.0;
    for s = 0 to n - 1 do
      let mass = pi.(s) in
      if mass > 0.0 then begin
        next.(s) <- next.(s) +. (mass *. (1.0 -. (t.outflow.(s) /. uniform)));
        List.iter
          (fun (target, rate) -> next.(target) <- next.(target) +. (mass *. rate /. uniform))
          t.transitions.(s)
      end
    done;
    let diff = ref 0.0 in
    for s = 0 to n - 1 do
      diff := !diff +. Float.abs (next.(s) -. pi.(s));
      pi.(s) <- next.(s)
    done;
    if !diff > tol then
      if k >= max_iter then failwith "Ctmc.steady_state: no convergence" else iterate (k + 1)
  in
  iterate 1;
  let total = Array.fold_left ( +. ) 0.0 pi in
  Array.map (fun p -> p /. total) pi

let steady_state_gauss_seidel ~tol ~max_iter t =
  (* Gauss–Seidel on the balance equations π_j · outflow_j = Σ_i π_i q_ij.
     Unlike uniformized power iteration, convergence does not degrade when
     rates span many orders of magnitude (local moves vs slow services). *)
  let n = t.states in
  let incoming = Array.make n [] in
  for s = 0 to n - 1 do
    List.iter
      (fun (target, rate) -> incoming.(target) <- (s, rate) :: incoming.(target))
      t.transitions.(s)
  done;
  let pi = Array.make n (1.0 /. Float.of_int n) in
  let rec sweep k =
    let diff = ref 0.0 in
    for j = 0 to n - 1 do
      if t.outflow.(j) > 0.0 then begin
        let inflow =
          List.fold_left (fun acc (src, rate) -> acc +. (pi.(src) *. rate)) 0.0 incoming.(j)
        in
        let updated = inflow /. t.outflow.(j) in
        diff := !diff +. Float.abs (updated -. pi.(j));
        pi.(j) <- updated
      end
      else pi.(j) <- 0.0
    done;
    (* Renormalize each sweep so the fixed point is a distribution. *)
    let total = Array.fold_left ( +. ) 0.0 pi in
    if total > 0.0 then
      for j = 0 to n - 1 do
        pi.(j) <- pi.(j) /. total
      done;
    if !diff > tol then
      if k >= max_iter then failwith "Ctmc.steady_state: no convergence" else sweep (k + 1)
  in
  sweep 1;
  pi

let steady_state ?(solver = Gauss_seidel) ?(tol = 1e-12) ?(max_iter = 200_000) t =
  match solver with
  | Gauss_seidel -> steady_state_gauss_seidel ~tol ~max_iter t
  | Power -> steady_state_power ~tol ~max_iter t

let throughput ?solver ?tol ?max_iter t =
  let pi = steady_state ?solver ?tol ?max_iter t in
  let processing_mass = ref 0.0 in
  for s = 0 to t.states - 1 do
    if digit s 0 = 1 then processing_mass := !processing_mass +. pi.(s)
  done;
  t.service_rates.(0) *. !processing_mass

(* ‖πQ‖₁ — a correctness check on a proposed stationary vector of this
   chain (the library's vector indexes the same states). *)
let residual t pi =
  if Array.length pi <> t.states then invalid_arg "Ctmc_ref.residual: wrong dimension";
  let flux = Array.make t.states 0.0 in
  for s = 0 to t.states - 1 do
    flux.(s) <- flux.(s) -. (pi.(s) *. t.outflow.(s));
    List.iter
      (fun (target, rate) -> flux.(target) <- flux.(target) +. (pi.(s) *. rate))
      t.transitions.(s)
  done;
  Array.fold_left (fun acc f -> acc +. Float.abs f) 0.0 flux
