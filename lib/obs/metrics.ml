module Render = Aspipe_util.Render

type counter_cell = { mutable count : int }
type gauge_cell = { mutable gauge : float }

type histogram_cell = {
  mutable n : int;
  mutable total : float;
  mutable lo : float;
  mutable hi : float;
  mutable underflow : int;  (* observations <= 0 *)
  exponents : (int, int ref) Hashtbl.t;  (* frexp exponent -> count *)
}

type instrument =
  | Counter of counter_cell
  | Gauge of gauge_cell
  | Histogram of histogram_cell

type t = { instruments : (string, instrument) Hashtbl.t }

let create () = { instruments = Hashtbl.create 64 }

let get_instrument t name make =
  match Hashtbl.find_opt t.instruments name with
  | Some existing -> existing
  | None ->
      let fresh = make () in
      Hashtbl.add t.instruments name fresh;
      fresh

module Counter = struct
  type cell = counter_cell

  let get t name =
    match get_instrument t name (fun () -> Counter { count = 0 }) with
    | Counter c -> c
    | Gauge _ | Histogram _ ->
        invalid_arg (Printf.sprintf "Metrics.Counter.get: %S is not a counter" name)

  let add c k = c.count <- c.count + k
  let incr c = add c 1
end

module Gauge = struct
  type cell = gauge_cell

  let get t name =
    match get_instrument t name (fun () -> Gauge { gauge = 0.0 }) with
    | Gauge g -> g
    | Counter _ | Histogram _ ->
        invalid_arg (Printf.sprintf "Metrics.Gauge.get: %S is not a gauge" name)

  let set g v = g.gauge <- v
  let add g v = g.gauge <- g.gauge +. v
end

module Histogram = struct
  type cell = histogram_cell

  let get t name =
    let make () =
      Histogram
        {
          n = 0;
          total = 0.0;
          lo = infinity;
          hi = neg_infinity;
          underflow = 0;
          exponents = Hashtbl.create 16;
        }
    in
    match get_instrument t name make with
    | Histogram h -> h
    | Counter _ | Gauge _ ->
        invalid_arg (Printf.sprintf "Metrics.Histogram.get: %S is not a histogram" name)

  let observe h v =
    if Float.is_nan v then ()
    else begin
      h.n <- h.n + 1;
      h.total <- h.total +. v;
      if v < h.lo then h.lo <- v;
      if v > h.hi then h.hi <- v;
      if v <= 0.0 then h.underflow <- h.underflow + 1
      else begin
        let _, e = Float.frexp v in
        match Hashtbl.find_opt h.exponents e with
        | Some cell -> incr cell
        | None -> Hashtbl.add h.exponents e (ref 1)
      end
    end

  let mean h = if h.n = 0 then nan else h.total /. Float.of_int h.n

  let sorted_buckets h =
    let positive =
      Hashtbl.fold (fun e cell acc -> (e, !cell) :: acc) h.exponents []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.map (fun (e, c) -> (Float.ldexp 1.0 (e - 1), Float.ldexp 1.0 e, c))
    in
    if h.underflow > 0 then (0.0, 0.0, h.underflow) :: positive else positive

  let quantile h q =
    if q < 0.0 || q > 1.0 then invalid_arg "Metrics.Histogram.quantile";
    if h.n = 0 then nan
    else begin
      let rank = q *. Float.of_int h.n in
      let rec walk cumulative = function
        | [] -> h.hi
        | (lo, hi, c) :: rest ->
            let cumulative = cumulative +. Float.of_int c in
            if cumulative >= rank then
              if lo <= 0.0 then 0.0 else Float.min h.hi (Float.max h.lo (sqrt (lo *. hi)))
            else walk cumulative rest
      in
      walk 0.0 (sorted_buckets h)
    end
end

type histogram_stats = {
  count : int;
  sum : float;
  min : float;
  max : float;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
  p999 : float;
  buckets : (float * float * int) list;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram_stats) list;
}

let snapshot t =
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  Hashtbl.iter
    (fun name instrument ->
      match instrument with
      | Counter c -> counters := (name, c.count) :: !counters
      | Gauge g -> gauges := (name, g.gauge) :: !gauges
      | Histogram h ->
          let stats =
            {
              count = h.n;
              sum = h.total;
              min = (if h.n = 0 then nan else h.lo);
              max = (if h.n = 0 then nan else h.hi);
              mean = Histogram.mean h;
              p50 = Histogram.quantile h 0.5;
              p90 = Histogram.quantile h 0.9;
              p99 = Histogram.quantile h 0.99;
              p999 = Histogram.quantile h 0.999;
              buckets = Histogram.sorted_buckets h;
            }
          in
          histograms := (name, stats) :: !histograms)
    t.instruments;
  let by_name (a, _) (b, _) = String.compare a b in
  {
    counters = List.sort by_name !counters;
    gauges = List.sort by_name !gauges;
    histograms = List.sort by_name !histograms;
  }

let render s =
  let buffer = Buffer.create 1024 in
  if s.counters <> [] || s.gauges <> [] then begin
    let table = Render.Table.create ~title:"counters & gauges" ~columns:[ "metric"; "value" ] in
    List.iter
      (fun (name, v) -> Render.Table.add_row table [ name; string_of_int v ])
      s.counters;
    List.iter
      (fun (name, v) -> Render.Table.add_row table [ name; Printf.sprintf "%.4g" v ])
      s.gauges;
    Buffer.add_string buffer (Render.Table.to_string table)
  end;
  if s.histograms <> [] then begin
    let table =
      Render.Table.create ~title:"histograms"
        ~columns:[ "metric"; "count"; "mean"; "p50"; "p90"; "p99"; "p999"; "max" ]
    in
    List.iter
      (fun (name, h) ->
        Render.Table.add_float_row table ~precision:4
          (name, [ Float.of_int h.count; h.mean; h.p50; h.p90; h.p99; h.p999; h.max ]))
      s.histograms;
    Buffer.add_string buffer (Render.Table.to_string table);
    List.iter
      (fun (name, h) ->
        if h.buckets <> [] then begin
          Buffer.add_string buffer (Printf.sprintf "-- %s buckets --\n" name);
          let widest = List.fold_left (fun acc (_, _, c) -> max acc c) 1 h.buckets in
          List.iter
            (fun (lo, hi, c) ->
              let bar = String.make (max 1 (c * 40 / widest)) '#' in
              if hi <= 0.0 then Buffer.add_string buffer (Printf.sprintf "%19s %6d %s\n" "<= 0" c bar)
              else
                Buffer.add_string buffer
                  (Printf.sprintf "[%8.3g, %8.3g) %6d %s\n" lo hi c bar))
            h.buckets
        end)
      s.histograms
  end;
  if Buffer.length buffer = 0 then "(no metrics recorded)\n" else Buffer.contents buffer

let snapshot_to_json s =
  let histogram_json (h : histogram_stats) =
    Json.Obj
      [
        ("count", Json.Int h.count);
        ("sum", Json.Float h.sum);
        ("min", Json.Float h.min);
        ("max", Json.Float h.max);
        ("mean", Json.Float h.mean);
        ("p50", Json.Float h.p50);
        ("p90", Json.Float h.p90);
        ("p99", Json.Float h.p99);
        ("p999", Json.Float h.p999);
        ( "buckets",
          Json.List
            (List.map
               (fun (lo, hi, c) ->
                 Json.Obj
                   [ ("lo", Json.Float lo); ("hi", Json.Float hi); ("count", Json.Int c) ])
               h.buckets) );
      ]
  in
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.counters));
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) s.gauges));
      ("histograms", Json.Obj (List.map (fun (k, h) -> (k, histogram_json h)) s.histograms));
    ]
