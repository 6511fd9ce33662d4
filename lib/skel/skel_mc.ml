module Spsc = Aspipe_util.Spsc

let run_seq pipe inputs = List.map (Pipe.apply pipe) inputs

(* ----------------------------------------------------- SPSC ring backend *)

(* Every loop on the chunk path below is a top-level function taking all
   its arguments, and every buffer is a plain ['a array] allocated from the
   first item: a chunk then allocates nothing, neither an option per item
   nor a closure per chunk. *)

(* Stage failure: close both neighbours, so upstream senders blocked on a
   full ring wake up via {!Spsc.Closed} instead of deadlocking, then
   re-raise for {!Domain.join} to surface. Out of line, so the cold path
   adds no code to the stage loops. *)
let fail_stage cin cout e =
  Spsc.close cin;
  Spsc.close cout;
  raise e
[@@inline never]

(* [outbuf.(0..n-1)] holds mapped items: push them, pop the next chunk into
   [inbuf], map it, repeat until [cin] is closed and drained. If [cout] is
   closed under us mid-push, a later stage failed: relay the shutdown
   upstream and exit with the typed close signal; the failing stage carries
   the real exception out through its own join. *)
let rec pump_chunks ~batch f cin cout inbuf outbuf n =
  (match Spsc.push_chunk cout outbuf ~pos:0 ~len:n with
  | () -> ()
  | exception Spsc.Closed ->
      Spsc.close cin;
      raise Spsc.Closed);
  let n = Spsc.pop_chunk cin inbuf ~pos:0 ~len:batch in
  if n = 0 then Spsc.close cout
  else begin
    (match
       for i = 0 to n - 1 do
         outbuf.(i) <- f inbuf.(i)
       done
     with
    | () -> ()
    | exception e -> fail_stage cin cout e);
    pump_chunks ~batch f cin cout inbuf outbuf n
  end

(* Pump [cin] through [f] into [cout] in chunks of up to [batch] items,
   then propagate the close downstream so the chain shuts down stage by
   stage. Each inter-stage ring has exactly one producer (the upstream
   stage or the feeder) and one consumer (this stage), so the lock-free
   SPSC discipline holds along the whole chain. The first item comes from
   {!Spsc.pop}: it and its image fill the two chunk buffers. Out of line:
   every spawn site calls it instead of carrying its own copy. *)
let pump ~batch f cin cout =
  match Spsc.pop cin with
  | None -> Spsc.close cout
  | Some x ->
      let y = match f x with y -> y | exception e -> fail_stage cin cout e in
      pump_chunks ~batch f cin cout (Array.make batch x) (Array.make batch y) 1
[@@inline never]

type packed_domain = Packed : 'a Domain.t -> packed_domain

(* The shared skeleton of [run] and [run_fold]: build one domain per stage
   over SPSC rings, feed on a dedicated domain, consume on the caller's
   domain, then join everything and re-raise the actual failure if there
   was one — preferring it over the [Spsc.Closed] relays its neighbours
   exited with — so a raising stage, generator or fold surfaces as its own
   exception rather than a hang or a leaked domain.

   The feeder treats [Spsc.Closed] as "stop feeding"; on any other
   exception it closes its ring, so the chain drains and shuts down, and
   re-raises for its join. If [consume] raises, both end rings are closed,
   which stops the feeder and every stage, and every domain is joined
   before the consumer's exception is re-raised; a non-[Closed] failure of
   the feeder or a stage still wins. *)
let run_core :
    type a b c.
    capacity:int -> batch:int -> (a, b) Pipe.t -> feed:(a Spsc.t -> unit) -> consume:(b Spsc.t -> c) -> c =
 fun ~capacity ~batch pipe ~feed ~consume ->
  if capacity <= 0 then invalid_arg "Skel_mc.run: capacity must be positive";
  if batch <= 0 then invalid_arg "Skel_mc.run: batch must be positive";
  let cin = Spsc.create ~capacity in
  let rec build :
      type a b. (a, b) Pipe.t -> a Spsc.t -> packed_domain list -> packed_domain list * b Spsc.t =
   fun p cin domains ->
    match p with
    | Pipe.Last f ->
        let cout = Spsc.create ~capacity in
        let d = Domain.spawn (fun () -> pump ~batch f cin cout) in
        (Packed d :: domains, cout)
    | Pipe.Stage (f, rest) ->
        let cmid = Spsc.create ~capacity in
        let d = Domain.spawn (fun () -> pump ~batch f cin cmid) in
        build rest cmid (Packed d :: domains)
  in
  let domains, cout = build pipe cin [] in
  let feeder =
    Domain.spawn (fun () ->
        match feed cin with
        | () -> ()
        | exception Spsc.Closed -> ()
        | exception e ->
            Spsc.close cin;
            raise e)
  in
  let result =
    match consume cout with
    | r -> Ok r
    | exception e ->
        Spsc.close cin;
        Spsc.close cout;
        Error e
  in
  let failures =
    List.filter_map
      (fun (Packed d) -> match Domain.join d with _ -> None | exception e -> Some e)
      (Packed feeder :: domains)
  in
  match (List.find_opt (function Spsc.Closed -> false | _ -> true) failures, result) with
  | Some e, _ | None, Error e -> raise e
  | None, Ok r -> ( match failures with e :: _ -> raise e | [] -> r)

(* The feeder: [gen i] for [i] from [i] to [items - 1], in chunks; the
   first chunk's slots below [from] are already filled, so [gen] runs
   exactly once per index. *)
let rec feed_gen ~batch ~items ~gen buf cin i ~from =
  if i >= items then Spsc.close cin
  else begin
    let n = min batch (items - i) in
    for k = from to n - 1 do
      buf.(k) <- gen (i + k)
    done;
    Spsc.push_chunk cin buf ~pos:0 ~len:n;
    feed_gen ~batch ~items ~gen buf cin (i + n) ~from:0
  end

(* The consumer: the first output comes from {!Spsc.pop} and sizes [buf]. *)
let rec fold_chunks ~batch ~f buf cout acc =
  let n = Spsc.pop_chunk cout buf ~pos:0 ~len:batch in
  if n = 0 then acc
  else begin
    let acc = ref acc in
    for i = 0 to n - 1 do
      acc := f !acc buf.(i)
    done;
    fold_chunks ~batch ~f buf cout !acc
  end

let drain_fold ~batch ~init ~f cout =
  match Spsc.pop cout with
  | None -> init
  | Some y ->
      let acc = f init y in
      fold_chunks ~batch ~f (Array.make batch y) cout acc

let run_fold ?(capacity = 8) ?(batch = 1) pipe ~items ~gen ~init ~f =
  if items < 0 then invalid_arg "Skel_mc.run_fold: items must be non-negative";
  let feed cin =
    if items = 0 then Spsc.close cin
    else feed_gen ~batch ~items ~gen (Array.make batch (gen 0)) cin 0 ~from:1
  in
  run_core ~capacity ~batch pipe ~feed ~consume:(drain_fold ~batch ~init ~f)

let run ?capacity ?batch pipe inputs =
  let inputs = Array.of_list inputs in
  List.rev
    (run_fold ?capacity ?batch pipe ~items:(Array.length inputs) ~gen:(Array.get inputs) ~init:[]
       ~f:(fun acc y -> y :: acc))

let run_grouped ~groups pipe inputs = run (Pipe.fuse_groups groups pipe) inputs

(* ------------------------------------------------------------------ timing *)

(* bechamel's monotonic clock (ns since an arbitrary epoch): elapsed-time
   measurement without wall-clock epochs, matching the lint R1 discipline
   for the direct-execution engines. *)
let now_seconds () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let run_timed pipe inputs =
  let t0 = now_seconds () in
  let outputs = run pipe inputs in
  (outputs, now_seconds () -. t0)

let run_seq_timed pipe inputs =
  let t0 = now_seconds () in
  let outputs = run_seq pipe inputs in
  (outputs, now_seconds () -. t0)
