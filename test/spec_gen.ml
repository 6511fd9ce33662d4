(* Cost specs for the tests of [Analytic.upper_bound] and of the decisions
   it settles: 1–6 stages on 1–4 processors, drawn to include zero-work
   stages, one hot stage (×3–10), equal works, node rates of 0 and 1e-9 (a
   crushed suspect), equal rates, and free links (no latency and no bytes,
   so that no move adds to a cycle and the bound can be attained). *)

module Costspec = Aspipe_model.Costspec

let bound_spec =
  QCheck2.Gen.(
    let* stages = int_range 1 6 in
    let* processors = int_range 1 4 in
    let* base = float_range 0.1 3.0 in
    let* drawn = array_size (return stages) (oneof [ float_range 0.1 3.0; oneofl [ 0.0; 1.0 ] ]) in
    let* hot = int_range 0 (stages - 1) in
    let* factor = float_range 3.0 10.0 in
    let* shape = oneofl [ `Drawn; `Equal; `Hot ] in
    let stage_work =
      match shape with
      | `Drawn -> drawn
      | `Equal -> Array.make stages base
      | `Hot -> Array.init stages (fun i -> if i = hot then base *. factor else base)
    in
    let* rates = array_size (return processors) (oneof [ float_range 0.5 20.0; oneofl [ 0.0; 1e-9 ] ]) in
    let* equal_rates = bool in
    let node_rates = if equal_rates then Array.make processors rates.(0) else rates in
    let* free_links = bool in
    let* item_bytes = float_range 0.0 2e4 in
    let* output_bytes = array_size (return stages) (float_range 0.0 2e4) in
    let* latency = array_size (return (processors * processors)) (float_range 0.0 0.05) in
    let* bandwidth = array_size (return (processors * processors)) (float_range 1e5 1e7) in
    let* user_latency = array_size (return processors) (float_range 0.0 0.05) in
    let* user_bandwidth = array_size (return processors) (float_range 1e5 1e7) in
    let matrix cells ~free =
      Array.init processors (fun src ->
          Array.init processors (fun dst -> if free then 0.0 else cells.((src * processors) + dst)))
    in
    return
      {
        Costspec.stage_work;
        node_rates;
        item_bytes = (if free_links then 0.0 else item_bytes);
        output_bytes = (if free_links then Array.make stages 0.0 else output_bytes);
        latency = matrix latency ~free:free_links;
        bandwidth = matrix bandwidth ~free:false;
        user_latency = (if free_links then Array.make processors 0.0 else user_latency);
        user_bandwidth;
      })
