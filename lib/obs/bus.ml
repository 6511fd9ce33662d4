type sink = Event.t -> unit

type interest = All | Control

(* Sinks live in a growable array kept in subscription order — appending
   is amortised O(1) (the old list representation rebuilt the whole list
   per subscribe, O(n²) across n subscriptions) and delivery is a
   cache-friendly array walk.

   [all_count] caches how many sinks want the full stream, so {!active} —
   the guard hot call sites consult before even building a payload — is a
   single integer compare rather than a list probe. *)
type t = {
  mutable clock : unit -> float;
  mutable sinks : sink array;
  mutable count : int;
  mutable all_count : int;
  mutable seq : int;
}

let null_sink (_ : Event.t) = ()

let create () = { clock = (fun () -> 0.0); sinks = [||]; count = 0; all_count = 0; seq = 0 }

let set_clock t clock = t.clock <- clock
let now t = t.clock ()

let subscribe ?(interest = All) t sink =
  if t.count = Array.length t.sinks then begin
    let cap = Array.length t.sinks in
    let sinks = Array.make (if cap = 0 then 4 else 2 * cap) null_sink in
    Array.blit t.sinks 0 sinks 0 cap;
    t.sinks <- sinks
  end;
  t.sinks.(t.count) <- sink;
  t.count <- t.count + 1;
  if interest = All then t.all_count <- t.all_count + 1

let active t = t.all_count > 0

let emit t payload =
  let seq = t.seq in
  t.seq <- seq + 1;
  if t.count > 0 then begin
    let event = { Event.time = t.clock (); seq; payload } in
    for i = 0 to t.count - 1 do
      (Array.unsafe_get t.sinks i) event
    done
  end

let events_emitted t = t.seq
