(** Domain-local redirectable output — the seam that lets the campaign
    runner execute printing experiments on worker domains and still emit
    their bytes in deterministic registry order.

    All experiment-facing printing (including {!Render.Table.print} and
    {!Render.print_figure}) goes through this module. With no capture
    installed, everything falls through to stdout, so sequential callers
    (the CLI's [experiment <id>]) see exactly the bytes they always did.
    Under {!capture}, the same bytes land in a per-run buffer that the
    caller flushes in order. *)

val print_string : string -> unit
(** To the current domain's capture buffer, or stdout if none. *)

val newline : unit -> unit
(** [print_string "\n"]. *)

val printf : ('a, unit, string, unit) format4 -> 'a
(** [Printf]-style formatting into the current target. *)

val with_buffer : Buffer.t -> (unit -> 'a) -> 'a
(** [with_buffer b f] runs [f] with this domain's output redirected into
    [b], restoring the previous target afterwards (exception-safe).
    Scopes nest. *)

val capture : (unit -> unit) -> string
(** [capture f] runs [f] under a fresh buffer and returns its output. *)

val set_capture_probe : (int -> unit) option -> unit
(** Install (or clear) an observer called as each {!with_buffer} scope
    exits with the bytes that scope accumulated, on the exiting domain.
    One global slot — owned by the profiler ({!Aspipe_prof.Prof.enable});
    an empty slot costs one atomic load per scope. *)
