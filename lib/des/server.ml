(* The in-service job's progress. An all-float record is stored flat, so
   updating it allocates no float box. *)
type progress = { mutable remaining : float; mutable last_update : float }

type t = {
  engine : Engine.t;
  rate : Signal.t;
  progress : progress;
  mutable busy : bool;  (* a job is in service *)
  mutable tag : int;  (* the in-service job's tag and completion callback *)
  mutable on_complete : int -> unit;
  mutable completion : Engine.handle;  (* its pending completion event *)
  mutable complete : unit -> unit;  (* that event's callback, built once *)
  (* Waiting jobs, FIFO: a ring of [len] entries from [head] over parallel
     arrays whose length is a power of two, so a job costs no record and
     no queue cell. *)
  mutable works : float array;
  mutable tags : int array;
  mutable starts : (int -> unit) array;
  mutable completes : (int -> unit) array;
  mutable head : int;
  mutable len : int;
}

(* Fold the service progress made since [last_update] (at rate [rate]) into
   the in-flight job's remaining work. *)
let sync t ~rate =
  let p = t.progress in
  if t.busy then begin
    let elapsed = Engine.now t.engine -. p.last_update in
    p.remaining <- Float.max 0.0 (p.remaining -. (rate *. elapsed))
  end;
  p.last_update <- Engine.now t.engine

let cancel_completion t =
  Engine.cancel t.completion;
  t.completion <- Engine.none

(* [reschedule] and [submit] stay out of line, so the schedule path and
   the ring are not copied into every caller. *)
let[@inline never] reschedule t =
  cancel_completion t;
  if t.busy then begin
    let rate = Signal.get t.rate in
    if rate > 0.0 then
      t.completion <-
        Engine.schedule_cancellable t.engine ~delay:(t.progress.remaining /. rate) t.complete
  end
(* rate = 0: stalled; the rate subscription will reschedule when it rises. *)

let start_next t =
  if (not t.busy) && t.len > 0 then begin
    let i = t.head in
    t.head <- (i + 1) land (Array.length t.tags - 1);
    t.len <- t.len - 1;
    t.busy <- true;
    t.tag <- t.tags.(i);
    t.on_complete <- t.completes.(i);
    t.progress.remaining <- t.works.(i);
    t.progress.last_update <- Engine.now t.engine;
    t.starts.(i) t.tag;
    reschedule t
  end

let complete t =
  if t.busy then begin
    t.completion <- Engine.none;
    t.busy <- false;
    t.progress.last_update <- Engine.now t.engine;
    t.on_complete t.tag;
    start_next t
  end

let create engine ~rate =
  let t =
    {
      engine;
      rate;
      progress = { remaining = 0.0; last_update = Engine.now engine };
      busy = false;
      tag = 0;
      on_complete = ignore;
      completion = Engine.none;
      complete = ignore;
      works = Array.make 8 0.0;
      tags = Array.make 8 0;
      starts = Array.make 8 ignore;
      completes = Array.make 8 ignore;
      head = 0;
      len = 0;
    }
  in
  t.complete <- (fun () -> complete t);
  Signal.subscribe rate (fun ~old_value ~new_value:_ ->
      sync t ~rate:old_value;
      reschedule t);
  t

(* Double the ring, unrolling the waiting jobs to the front in FIFO order. *)
let grow t =
  let cap = Array.length t.tags in
  let unroll a fill =
    let b = Array.make (2 * cap) fill in
    for k = 0 to cap - 1 do
      b.(k) <- a.((t.head + k) land (cap - 1))
    done;
    b
  in
  t.works <- unroll t.works 0.0;
  t.tags <- unroll t.tags 0;
  t.starts <- unroll t.starts ignore;
  t.completes <- unroll t.completes ignore;
  t.head <- 0

let[@inline never] submit t ~work ~tag ~on_start on_complete =
  if not (Float.is_finite work) || work < 0.0 then
    invalid_arg "Server.submit: work must be finite and non-negative";
  if t.len = Array.length t.tags then grow t;
  let i = (t.head + t.len) land (Array.length t.tags - 1) in
  t.works.(i) <- work;
  t.tags.(i) <- tag;
  t.starts.(i) <- on_start;
  t.completes.(i) <- on_complete;
  t.len <- t.len + 1;
  start_next t

let drop_all t =
  cancel_completion t;
  (* The aborted job's callbacks never fire — the caller owns whatever
     recovery the drop implies. *)
  let dropped = ref [] in
  for k = t.len - 1 downto 0 do
    dropped := t.tags.((t.head + k) land (Array.length t.tags - 1)) :: !dropped
  done;
  t.len <- 0;
  if t.busy then begin
    t.busy <- false;
    dropped := t.tag :: !dropped
  end;
  t.progress.last_update <- Engine.now t.engine;
  !dropped
