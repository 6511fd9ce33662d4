module Spsc = Aspipe_util.Spsc

let run_seq pipe inputs = List.map (Pipe.apply pipe) inputs

(* ----------------------------------------------------- SPSC ring backend *)

(* Pump [cin] through [f] into [cout] in chunks of up to [batch] items,
   then propagate the close downstream so the chain shuts down stage by
   stage. Each inter-stage ring has exactly one producer (the upstream
   stage or the feeder) and one consumer (this stage), so the lock-free
   SPSC discipline holds along the whole chain.

   Failure protocol: if [f] raises, close both neighbours — upstream
   senders blocked on a full ring wake up via {!Spsc.Closed} instead of
   deadlocking — then re-raise for {!Domain.join} to surface. If the
   *downstream* ring is closed under us mid-push, a later stage failed:
   relay the shutdown upstream and exit with the typed close signal; the
   failing stage carries the real exception out through its own join. *)
let pump ~batch f cin cout =
  let inbuf = Array.make batch None in
  let outbuf = Array.make batch None in
  let rec loop () =
    let n = Spsc.pop_chunk cin inbuf ~pos:0 ~len:batch in
    if n = 0 then Spsc.close cout
    else begin
      match
        for i = 0 to n - 1 do
          let x = match inbuf.(i) with Some x -> x | None -> assert false in
          inbuf.(i) <- None;
          outbuf.(i) <- Some (f x)
        done
      with
      | exception e ->
          Spsc.close cin;
          Spsc.close cout;
          raise e
      | () -> (
          match Spsc.push_chunk cout outbuf ~pos:0 ~len:n with
          | () -> loop ()
          | exception Spsc.Closed ->
              Spsc.close cin;
              raise Spsc.Closed)
    end
  in
  loop ()

type packed_domain = Packed : 'a Domain.t -> packed_domain

(* The shared skeleton of [run] and [run_fold]: build one domain per stage
   over SPSC rings, feed on a dedicated domain, consume on the caller's
   domain, then join everything and re-raise the actual stage failure if
   there was one — preferring it over the [Spsc.Closed] relays its
   neighbours exited with — so a raising stage function surfaces as its own
   exception rather than a hang. [feed] must handle {!Spsc.Closed} itself
   (it just means "stop feeding"). *)
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
  let feeder = Domain.spawn (fun () -> feed cin) in
  let result = consume cout in
  Domain.join feeder;
  let failures =
    List.filter_map
      (fun (Packed d) -> try ignore (Domain.join d); None with e -> Some e)
      domains
  in
  (match List.find_opt (function Spsc.Closed -> false | _ -> true) failures with
  | Some e -> raise e
  | None -> ( match failures with e :: _ -> raise e | [] -> ()));
  result

(* Chunked feeder over a list. A failing stage closes the whole chain; the
   typed [Closed] here just means "stop feeding". *)
let feed_list ~batch inputs cin =
  let buf = Array.make batch None in
  let rec fill i xs =
    match xs with
    | x :: rest when i < batch ->
        buf.(i) <- Some x;
        fill (i + 1) rest
    | rest -> (i, rest)
  in
  try
    let rec go xs =
      match xs with
      | [] -> Spsc.close cin
      | xs ->
          let n, rest = fill 0 xs in
          Spsc.push_chunk cin buf ~pos:0 ~len:n;
          go rest
    in
    go inputs
  with Spsc.Closed -> ()

let drain_fold ~batch ~init ~f cout =
  let buf = Array.make batch None in
  let rec go acc =
    let n = Spsc.pop_chunk cout buf ~pos:0 ~len:batch in
    if n = 0 then acc
    else begin
      let acc = ref acc in
      for i = 0 to n - 1 do
        (match buf.(i) with Some y -> acc := f !acc y | None -> assert false);
        buf.(i) <- None
      done;
      go !acc
    end
  in
  go init

let run ?(capacity = 8) ?(batch = 1) pipe inputs =
  List.rev
    (run_core ~capacity ~batch pipe
       ~feed:(feed_list ~batch inputs)
       ~consume:(drain_fold ~batch ~init:[] ~f:(fun acc y -> y :: acc)))

let run_fold ?(capacity = 8) ?(batch = 1) pipe ~items ~gen ~init ~f =
  if items < 0 then invalid_arg "Skel_mc.run_fold: items must be non-negative";
  let feed cin =
    let buf = Array.make batch None in
    try
      let i = ref 0 in
      while !i < items do
        let n = min batch (items - !i) in
        for k = 0 to n - 1 do
          buf.(k) <- Some (gen (!i + k))
        done;
        Spsc.push_chunk cin buf ~pos:0 ~len:n;
        i := !i + n
      done;
      Spsc.close cin
    with Spsc.Closed -> ()
  in
  run_core ~capacity ~batch pipe ~feed ~consume:(drain_fold ~batch ~init ~f)

let run_grouped ?capacity ?batch ~groups pipe inputs =
  run ?capacity ?batch (Pipe.fuse_groups groups pipe) inputs

(* ------------------------------------------------------------------ timing *)

(* bechamel's monotonic clock (ns since an arbitrary epoch): elapsed-time
   measurement without wall-clock epochs, matching the lint R1 discipline
   for the direct-execution engines. *)
let now_seconds () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let run_timed ?capacity ?batch pipe inputs =
  let t0 = now_seconds () in
  let outputs = run ?capacity ?batch pipe inputs in
  (outputs, now_seconds () -. t0)

let run_seq_timed pipe inputs =
  let t0 = now_seconds () in
  let outputs = run_seq pipe inputs in
  (outputs, now_seconds () -. t0)
