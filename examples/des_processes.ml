(* The effects-based process API: simulation actors as sequential code.
   A dispatcher process feeds jobs through a mailbox to two worker processes
   that share a rate-modulated server — while a plain callback event
   degrades the server's speed halfway through. Processes, mailboxes and raw
   callbacks all interleave on the same virtual clock.

     dune exec examples/des_processes.exe *)

module Engine = Aspipe_des.Engine
module Signal = Aspipe_des.Signal
module Server = Aspipe_des.Server
module Process = Aspipe_des.Process

let () =
  let engine = Engine.create () in
  let rate = Signal.create 10.0 in
  let cpu = Server.create engine ~rate in
  let jobs = Process.Mailbox.create engine in
  let done_count = ref 0 in

  (* Two identical workers, written as straight-line code. *)
  let worker name =
    Process.spawn engine (fun () ->
        let rec serve () =
          let job = Process.Mailbox.recv jobs in
          Printf.printf "[%6.2f] %s picks up job %d\n" (Process.now ()) name job;
          (* Bridge to the callback world: await the server's completion. *)
          Process.await (fun k ->
              Server.submit cpu ~work:5.0 ~tag:job ~on_start:ignore (fun _ -> k ()));
          Printf.printf "[%6.2f] %s finished job %d\n" (Process.now ()) name job;
          incr done_count;
          serve ()
        in
        serve ())
  in
  worker "worker-A";
  worker "worker-B";

  (* The dispatcher sleeps between submissions. *)
  Process.spawn engine (fun () ->
      for job = 1 to 6 do
        Process.Mailbox.send jobs job;
        Process.sleep 0.4
      done);

  (* A plain callback halves the CPU speed at t = 1.5 — in-flight service
     slows down mid-job. *)
  ignore
    (Engine.schedule engine ~delay:1.5 (fun () ->
         print_endline "[  1.50] background load arrives: CPU speed halved";
         Signal.set rate 5.0));

  Engine.run ~until:20.0 engine;
  Printf.printf "all %d jobs done by t=%.2f (virtual)\n" !done_count (Engine.now engine)
