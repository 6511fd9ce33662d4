type job = {
  tag : int;
  on_start : unit -> unit;
  on_complete : unit -> unit;
  mutable remaining : float;
}

type t = {
  engine : Engine.t;
  rate : Signal.t;
  waiting : job Queue.t;
  mutable current : job option;
  mutable last_update : float;
  mutable completion : Engine.handle option;
}

(* Fold the service progress made since [last_update] (at rate [rate]) into
   the in-flight job's remaining work. *)
let sync t ~rate =
  (match t.current with
  | Some job ->
      let elapsed = Engine.now t.engine -. t.last_update in
      job.remaining <- Float.max 0.0 (job.remaining -. (rate *. elapsed))
  | None -> ());
  t.last_update <- Engine.now t.engine

let cancel_completion t =
  match t.completion with
  | Some h ->
      Engine.cancel h;
      t.completion <- None
  | None -> ()

let rec reschedule t =
  cancel_completion t;
  match t.current with
  | None -> ()
  | Some job ->
      let rate = Signal.get t.rate in
      if rate > 0.0 then begin
        let delay = job.remaining /. rate in
        t.completion <- Some (Engine.schedule t.engine ~delay (fun () -> complete t))
      end
(* rate = 0: stalled; the rate subscription will reschedule when it rises. *)

and complete t =
  match t.current with
  | None -> ()
  | Some job ->
      t.completion <- None;
      t.current <- None;
      t.last_update <- Engine.now t.engine;
      job.on_complete ();
      start_next t

and start_next t =
  if t.current = None && not (Queue.is_empty t.waiting) then begin
    let job = Queue.pop t.waiting in
    t.current <- Some job;
    t.last_update <- Engine.now t.engine;
    job.on_start ();
    reschedule t
  end

let create engine ~rate =
  let t =
    {
      engine;
      rate;
      waiting = Queue.create ();
      current = None;
      last_update = Engine.now engine;
      completion = None;
    }
  in
  Signal.subscribe rate (fun ~old_value ~new_value:_ ->
      sync t ~rate:old_value;
      reschedule t);
  t

let submit t ~work ?(tag = 0) ?(on_start = fun () -> ()) on_complete =
  if not (Float.is_finite work) || work < 0.0 then
    invalid_arg "Server.submit: work must be finite and non-negative";
  Queue.push { tag; on_start; on_complete; remaining = work } t.waiting;
  start_next t

let drop_all t =
  cancel_completion t;
  let dropped = ref [] in
  (match t.current with
  | Some job ->
      (* The aborted job's callbacks never fire — the caller owns whatever
         recovery the drop implies. *)
      t.current <- None;
      dropped := [ job.tag ]
  | None -> ());
  t.last_update <- Engine.now t.engine;
  Queue.iter (fun job -> dropped := job.tag :: !dropped) t.waiting;
  Queue.clear t.waiting;
  List.rev !dropped
