(* Domain-local output redirection.

   Each domain carries an optional capture buffer in domain-local storage.
   When a buffer is installed, every byte the experiment code prints through
   this module lands in the buffer instead of stdout; otherwise the bytes
   fall through to stdout unchanged. Capture scopes nest (the previous
   target is restored on exit, even on exceptions), so a worker domain that
   helps execute another task mid-wait cannot leak that task's output into
   its own buffer. *)

let key : Buffer.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let target () = Domain.DLS.get key

let print_string s =
  match !(target ()) with
  | Some buffer -> Buffer.add_string buffer s
  | None -> Stdlib.print_string s

let newline () = print_string "\n"

let printf fmt = Printf.ksprintf print_string fmt

(* An optional observer of capture-scope exits (the profiler counts flushed
   bytes through it). One global slot, read with a single atomic load per
   scope — never per byte — so capture cost is unchanged when empty. *)
let capture_probe : (int -> unit) option Atomic.t = Atomic.make None
let set_capture_probe p = Atomic.set capture_probe p

let with_buffer buffer f =
  let cell = target () in
  let previous = !cell in
  cell := Some buffer;
  let before = Buffer.length buffer in
  Fun.protect
    ~finally:(fun () ->
      cell := previous;
      match Atomic.get capture_probe with
      | Some probe -> probe (Buffer.length buffer - before)
      | None -> ())
    f

let capture f =
  let buffer = Buffer.create 1024 in
  with_buffer buffer f;
  Buffer.contents buffer
