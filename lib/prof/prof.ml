(* The recording core.

   One span buffer per domain, reached through Domain.DLS: appends never
   touch a lock or another domain's cache line. A global Atomic list
   (CAS-pushed) registers every buffer so [collect] can find them after
   the owning domains have died (pool workers are joined before the
   campaign report is rendered).

   [enable] bumps an epoch instead of walking domains: a DLS cell holding
   a buffer from an older epoch is stale, and the next record on that
   domain allocates a fresh buffer. That is what makes "profiler off
   allocates zero buffers" checkable — buffers exist only on domains that
   recorded a span while the current epoch was live.

   Clock discipline: bechamel's monotonic clock only (nanoseconds since an
   arbitrary origin, converted to float seconds). Wall-clock time never
   appears in a profile; lint R1 allowlists this directory for exactly
   this identifier. *)

type kind =
  | Task
  | Steal
  | Await_wait
  | Worker_idle
  | Cache_probe
  | Cache_store
  | Out_flush
  | Gc_sample
  | Queue_sample

type span = {
  kind : kind;
  label : string;
  t0 : float;
  t1 : float;
  a : int;
  b : int;
  words : float;
}

type timeline = { order : int; domain : string; spans : span list }
type profile = { origin : float; timelines : timeline list }

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type buf = {
  mutable order : int;
  mutable name : string;
  mutable spans : span array;
  mutable len : int;
}

let dummy =
  { kind = Gc_sample; label = ""; t0 = 0.0; t1 = 0.0; a = 0; b = 0; words = 0.0 }

let on = Atomic.make false
let epoch = Atomic.make 0
let registry : buf list Atomic.t = Atomic.make []

(* The domain's buffer and the epoch it belongs to. *)
type cell = { mutable cell_epoch : int; mutable cell_buf : buf option }

let slot : cell Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { cell_epoch = -1; cell_buf = None })

let enabled () = Atomic.get on

let rec push_registry b =
  let cur = Atomic.get registry in
  if not (Atomic.compare_and_set registry cur (b :: cur)) then push_registry b

let get_buf () =
  let cell = Domain.DLS.get slot in
  let e = Atomic.get epoch in
  match cell.cell_buf with
  | Some b when cell.cell_epoch = e -> b
  | _ ->
      let uid = (Domain.self () :> int) in
      let b =
        {
          order = max_int;
          name = Printf.sprintf "domain %d" uid;
          spans = Array.make 64 dummy;
          len = 0;
        }
      in
      push_registry b;
      cell.cell_buf <- Some b;
      cell.cell_epoch <- e;
      b

let set_domain ~order name =
  if enabled () then begin
    let b = get_buf () in
    b.order <- order;
    b.name <- name
  end

let record kind ~label ~t0 ~t1 ~a ~b:bv ~words =
  if enabled () then begin
    let buf = get_buf () in
    if buf.len = Array.length buf.spans then begin
      let bigger = Array.make (2 * buf.len) dummy in
      Array.blit buf.spans 0 bigger 0 buf.len;
      buf.spans <- bigger
    end;
    buf.spans.(buf.len) <- { kind; label; t0; t1; a; b = bv; words };
    buf.len <- buf.len + 1
  end

let record_gc ~label =
  if enabled () then begin
    let s = Gc.quick_stat () in
    let t = now () in
    record Gc_sample ~label ~t0:t ~t1:t ~a:s.Gc.minor_collections
      ~b:s.Gc.major_collections ~words:s.Gc.minor_words
  end

(* Captured-output flushes arrive through Out's probe slot: Out sits below
   this library in the dependency order, so the hook points upward rather
   than Out calling the profiler directly. *)
let out_probe bytes =
  if enabled () then begin
    let t = now () in
    record Out_flush ~label:"" ~t0:t ~t1:t ~a:bytes ~b:0 ~words:0.0
  end

let enable () =
  Atomic.set registry [];
  Atomic.incr epoch;
  Atomic.set on true;
  Aspipe_util.Out.set_capture_probe (Some out_probe)

let disable () =
  Atomic.set on false;
  Aspipe_util.Out.set_capture_probe None

(* Spans are appended when they END, so nested spans precede their parent
   in buffer order; sorting by start time (longest first on ties) restores
   parents-before-children, which the report's nesting stack relies on. *)
let sorted_spans buf =
  let arr = Array.sub buf.spans 0 buf.len in
  Array.stable_sort
    (fun x y -> match compare x.t0 y.t0 with 0 -> compare y.t1 x.t1 | c -> c)
    arr;
  Array.to_list arr

let collect () =
  let bufs = Atomic.get registry in
  let timelines =
    List.map (fun b -> { order = b.order; domain = b.name; spans = sorted_spans b }) bufs
  in
  let timelines =
    List.sort
      (fun (a : timeline) (b : timeline) ->
        match compare a.order b.order with 0 -> compare a.domain b.domain | c -> c)
      timelines
  in
  let origin =
    List.fold_left
      (fun acc (tl : timeline) ->
        match tl.spans with s :: _ -> Float.min acc s.t0 | [] -> acc)
      infinity timelines
  in
  let origin = if origin = infinity then 0.0 else origin in
  let rebase s = { s with t0 = s.t0 -. origin; t1 = s.t1 -. origin } in
  {
    origin;
    timelines =
      List.map
        (fun (tl : timeline) -> { tl with spans = List.map rebase tl.spans })
        timelines;
  }

let kind_name = function
  | Task -> "task"
  | Steal -> "steal"
  | Await_wait -> "await"
  | Worker_idle -> "idle"
  | Cache_probe -> "cache probe"
  | Cache_store -> "cache store"
  | Out_flush -> "out flush"
  | Gc_sample -> "gc"
  | Queue_sample -> "queue"
