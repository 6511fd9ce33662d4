(** Perfetto / Chrome trace-event export of a runner profile.

    Follows the same conventions as {!Aspipe_obs.Trace_event} (which owns
    pids 1 "grid" and 2 "network" for virtual-time traces): the runner is
    process 3, with one thread track per domain timeline. Duration spans
    render as complete ("X") slices, GC and queue samples as counter
    tracks. *)

(* lint: unused-export-ok used by the runner's trace events; test_prof checks it directly *)
val runner_pid : int
(** 3 — next to Trace_event's grid (1) and network (2) processes. *)

(* lint: unused-export-ok used by write; test_prof compares it byte for byte *)
val to_string : Prof.profile -> string

val write : Prof.profile -> path:string -> unit
