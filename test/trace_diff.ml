(* Compares a trace a simulator recorded directly with one subscribed to
   the same run's bus: every summary the reports read must agree bit for
   bit. [differs a b] names the first summary that does not. *)

module Trace = Aspipe_grid.Trace

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_pairs a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun (i, x) (j, y) -> i = j && same_float x y) a b

let same_series a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun (m, r) (m', r') -> same_float m m' && same_float r r') a b

let same_adaptation (a : Trace.adaptation) (b : Trace.adaptation) =
  same_float a.Trace.at b.Trace.at
  && a.Trace.mapping_before = b.Trace.mapping_before
  && a.Trace.mapping_after = b.Trace.mapping_after
  && same_float a.Trace.predicted_gain b.Trace.predicted_gain
  && same_float a.Trace.migration_cost b.Trace.migration_cost

let differs passed subscribed =
  let checks =
    [
      ("completions", same_pairs (Trace.completions passed) (Trace.completions subscribed));
      ("sojourns", same_pairs (Trace.sojourns passed) (Trace.sojourns subscribed));
      ( "adaptations",
        List.equal same_adaptation (Trace.adaptations passed) (Trace.adaptations subscribed) );
      ("makespan", same_float (Trace.makespan passed) (Trace.makespan subscribed));
      ("throughput", same_float (Trace.throughput passed) (Trace.throughput subscribed));
      ("mean sojourn", same_float (Trace.mean_sojourn passed) (Trace.mean_sojourn subscribed));
      ( "throughput series",
        same_series
          (Trace.throughput_series passed ~window:0.7)
          (Trace.throughput_series subscribed ~window:0.7) );
    ]
  in
  List.find_map (fun (what, same) -> if same then None else Some what) checks
