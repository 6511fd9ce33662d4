type spec = { target_quantile : float; threshold : float; window : float }

(* Each test is written so that NaN fails it: a NaN slips past every
   [<=] range check, and a NaN or infinite window cannot be scheduled. *)
let spec ~target_quantile ~threshold ~window =
  let refuse what v = invalid_arg (Printf.sprintf "Slo.spec: %s (got %g)" what v) in
  if not (target_quantile > 0.0 && target_quantile < 1.0) then
    refuse "target_quantile must lie in (0, 1)" target_quantile;
  if not (threshold > 0.0) then refuse "threshold must be positive" threshold;
  if not (window > 0.0 && Float.is_finite window) then
    refuse "window must be positive and finite" window;
  { target_quantile; threshold; window }

type window_stats = {
  index : int;
  until : float;
  completions : int;
  violations : int;
  attained : bool;
}

type t = {
  spec : spec;
  mutable window_completions : int;
  mutable window_violations : int;
  mutable windows : window_stats list;  (* newest first *)
  mutable next_index : int;
  mutable total_violations : int;
}

let create spec =
  {
    spec;
    window_completions = 0;
    window_violations = 0;
    windows = [];
    next_index = 0;
    total_violations = 0;
  }

let observe t ~sojourn =
  t.window_completions <- t.window_completions + 1;
  if sojourn > t.spec.threshold then begin
    t.window_violations <- t.window_violations + 1;
    t.total_violations <- t.total_violations + 1
  end

(* A window is attained when the fraction of in-threshold departures meets
   the target quantile; an empty window is vacuously attained (nothing was
   served late): attained ⇔ violations ≤ (1 − q) · completions. The budget
   comparison carries a relative epsilon so that an exactly-on-budget
   window (2 violations of 20 at q = 0.9) is not flipped to a miss by
   (1 − q) rounding away from a representable value. *)
let close_window t ~now =
  let completions = t.window_completions in
  let violations = t.window_violations in
  let budget = (1.0 -. t.spec.target_quantile) *. Float.of_int completions in
  let attained =
    completions = 0
    || Float.of_int violations <= budget +. (1e-9 *. Float.of_int completions)
  in
  let stats = { index = t.next_index; until = now; completions; violations; attained } in
  t.windows <- stats :: t.windows;
  t.next_index <- t.next_index + 1;
  t.window_completions <- 0;
  t.window_violations <- 0;
  stats

let windows t = List.rev t.windows

let attainment t =
  match t.windows with
  | [] -> nan
  | ws ->
      let attained = List.length (List.filter (fun w -> w.attained) ws) in
      Float.of_int attained /. Float.of_int (List.length ws)

let violations_total t = t.total_violations

let pp_spec ppf s =
  Format.fprintf ppf "p%g of sojourns <= %gs per %gs window"
    (100.0 *. s.target_quantile) s.threshold s.window
