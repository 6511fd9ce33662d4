type _ Effect.t +=
  | Await : (('a -> unit) -> unit) -> 'a Effect.t
  | Sleep : float -> unit Effect.t
  | Now : float Effect.t

(* The engine is carried by the handler, so the effects need no engine
   argument — the body closure does not know which engine it was spawned on. *)

let spawn engine body =
  let open Effect.Deep in
  let handler =
    {
      retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Await register ->
              Some
                (fun (k : (a, unit) continuation) ->
                  (* One-shot guard: resuming twice is a bug in the caller. *)
                  let resumed = ref false in
                  register (fun v ->
                      if !resumed then failwith "Process.await: continuation resumed twice";
                      resumed := true;
                      continue k v))
          | Sleep duration ->
              Some
                (fun (k : (a, unit) continuation) ->
                  ignore (Engine.schedule engine ~delay:duration (fun () -> continue k ())))
          | Now -> Some (fun (k : (a, unit) continuation) -> continue k (Engine.now engine))
          | _ -> None);
    }
  in
  ignore (Engine.schedule engine ~delay:0.0 (fun () -> match_with body () handler))

let in_process_error name =
  Failure (Printf.sprintf "Process.%s: must be called from inside a process" name)

let await register =
  try Effect.perform (Await register) with Effect.Unhandled _ -> raise (in_process_error "await")

let now () =
  try Effect.perform Now with Effect.Unhandled _ -> raise (in_process_error "now")

let sleep duration =
  if duration < 0.0 then invalid_arg "Process.sleep: negative duration";
  try Effect.perform (Sleep duration) with Effect.Unhandled _ -> raise (in_process_error "sleep")

module Mailbox = struct
  type 'a t = {
    engine : Engine.t;
    messages : 'a Queue.t;
    waiting : ('a -> unit) Queue.t;
  }

  let create engine = { engine; messages = Queue.create (); waiting = Queue.create () }

  let send t message =
    if Queue.is_empty t.waiting then Queue.push message t.messages
    else begin
      let resume = Queue.pop t.waiting in
      (* Resume through the event queue, so a send never re-enters the
         receiver synchronously. *)
      ignore (Engine.schedule t.engine ~delay:0.0 (fun () -> resume message))
    end

  let recv t =
    if Queue.is_empty t.messages then await (fun k -> Queue.push k t.waiting)
    else Queue.pop t.messages
end
