(* Rule scopes and allowlists: where each rule applies and which names it
   watches. These encode the repo's conventions (DESIGN.md, "Static
   analysis"); changing a list here is a convention change and should come
   with a DESIGN.md update. All paths are root-relative, '/'-separated. *)

let scan_roots = [ "lib"; "bin"; "bench" ]

(* W2: the units whose mentions make a lib/ export used. The examples are
   programs users write against the library; test/ is not a user. *)
let export_user_roots = [ "lib"; "bin"; "bench"; "examples" ]

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let export_user path =
  List.exists (fun r -> starts_with ~prefix:(r ^ "/") path) export_user_roots

(* ---------------------------------------------------- R1 no-wall-clock *)

(* Monotonic_clock.now is bechamel's monotonic source — still a real
   clock, so virtual-time code may not touch it either. *)
let wall_clock_idents =
  [ "Unix.gettimeofday"; "Unix.time"; "Sys.time"; "Monotonic_clock.now" ]

(* The campaign runner times real work on real domains, the profiler
   (lib/prof/) exists to record real durations, and the _mc
   direct-execution engines exist to measure real speedup; everything else
   takes time from the DES engine's virtual clock. skel_mc is on the list
   for Monotonic_clock.now alone (run_timed durations) — it no longer
   touches the wall clock proper. *)
let wall_clock_allowed path =
  starts_with ~prefix:"lib/runner/" path
  || starts_with ~prefix:"lib/prof/" path
  || path = "lib/skel/skel_mc.ml"
  || path = "lib/exp/exp_mc.ml"

(* -------------------------------------------- R2 deterministic-iteration *)

let unordered_walk_idents = [ "Hashtbl.iter"; "Hashtbl.fold" ]

(* Presence of any of these in the same structure-level binding is the
   (heuristic) witness that the walked entries are sorted before use. *)
let sort_suffixes =
  [
    [ "List"; "sort" ];
    [ "List"; "stable_sort" ];
    [ "List"; "sort_uniq" ];
    [ "Array"; "sort" ];
    [ "Array"; "stable_sort" ];
  ]

(* ------------------------------------------------------ R3 no-raw-print *)

let raw_print_scope path = starts_with ~prefix:"lib/" path && path <> "lib/util/out.ml"

let raw_print_idents =
  let bare =
    [
      "print_string"; "print_endline"; "print_newline"; "print_char"; "print_int";
      "print_float"; "print_bytes"; "printf";
    ]
  in
  bare
  @ List.map (fun n -> "Stdlib." ^ n) bare
  @ [ "Printf.printf"; "Format.printf"; "Format.print_string"; "Format.print_newline" ]

(* --------------------------------------------------- R4 guarded-hot-emit *)

(* Sparse control events may be emitted unguarded: Control-interest sinks
   (the fault machinery, the trace's adaptation record) must see them even
   on an otherwise silent bus (see lib/obs/bus.mli). Everything else is
   per-item hot-path traffic and must be guarded by Bus.active. *)
let control_events =
  [
    "Node_crashed"; "Node_recovered"; "Adaptation_considered"; "Adaptation_committed";
    "Adaptation_rejected"; "Failover_committed"; "Slo_window";
  ]

(* ------------------------------------------------------ R5 domain-safety *)

(* Campaign jobs run experiment closures on worker domains, and those
   closures reach essentially every library module; structure-level mutable
   state anywhere in lib/ is therefore shared across domains. *)
let shared_state_scope path = starts_with ~prefix:"lib/" path

(* Channels are cross-domain by construction: a structure-level Spsc ring
   is shared mutable state with a single-producer/single-consumer
   ownership contract no module-level binding can honour, so its creation
   head is watched alongside the classic containers. *)
let shared_state_heads =
  [
    "ref"; "Stdlib.ref"; "Hashtbl.create"; "Buffer.create"; "Queue.create"; "Stack.create";
    "Spsc.create"; "Aspipe_util.Spsc.create";
  ]

(* -------------------------------------------------- R6 banned-construct *)

let banned_idents = [ "Obj.magic"; "Obj.repr"; "Random.self_init" ]
let banned_operators = [ "=="; "!=" ]

(* ------------------------------------------------ R7 guarded-prof-record *)

(* Profiler probes must be free when profiling is off: a record call site
   sits under an `if Prof.enabled () ...` (or `when ...`) guard so its
   arguments (labels, Gc.quick_stat reads) are never built on unprofiled
   runs — the wall-clock twin of R4's Bus.active discipline. lib/prof/
   itself is exempt: the recorder re-checks the flag internally. *)
let prof_record_suffixes = [ [ "Prof"; "record" ]; [ "Prof"; "record_gc" ] ]
let prof_enabled_suffix = [ "Prof"; "enabled" ]

let prof_record_scope path =
  starts_with ~prefix:"lib/" path && not (starts_with ~prefix:"lib/prof/" path)

(* ===================== typed pass (R8..R10, Typedtree over .cmt) ======= *)

(* All typed-pass name matching is on *path suffixes* (the last one or two
   components of the resolved [Path.t]), so `Spsc.push`,
   `Aspipe_util.Spsc.push` and the dune-mangled `Aspipe_util__Spsc.push`
   all match — the same convention the syntactic rules use for waiver-free
   robustness against module aliases. *)

(* ------------------------------------------------------ R8 mutable-escape *)

(* Expression heads that allocate an ambient mutable location. Arrays are
   included even though read-only arrays are common: R8 only fires on
   locations that are actually *written* somewhere, so a constant lookup
   table never trips it. *)
let mutable_heads =
  [
    [ "ref" ];
    [ "Hashtbl"; "create" ];
    [ "Array"; "make" ];
    [ "Array"; "init" ];
    [ "Array"; "create_float" ];
    [ "Array"; "of_list" ];
    [ "Bytes"; "create" ];
    [ "Bytes"; "make" ];
    [ "Buffer"; "create" ];
    [ "Queue"; "create" ];
    [ "Stack"; "create" ];
  ]

(* Heads whose result is synchronised (or has its own dedicated analysis)
   and is therefore *not* an R8 location: Atomic and DLS are the sanctioned
   cross-domain cells, a Mutex is itself a guard, and Spsc rings are
   channels whose ownership discipline R9 checks instead. *)
let sync_heads =
  [
    [ "Atomic"; "make" ];
    [ "Domain"; "DLS"; "new_key" ];
    [ "DLS"; "new_key" ];
    [ "Mutex"; "create" ];
    [ "Condition"; "create" ];
    [ "Spsc"; "create" ];
  ]

(* A mutable record literal that carries a Mutex field is treated as
   mutex-guarded state (the Pool pattern: every field write happens with
   t.mutex held). Heuristic, documented in DESIGN.md's soundness caveats. *)
let mutex_guard_heads = [ [ "Mutex"; "create" ] ]

(* Functions whose first positional argument they mutate. [":="], [incr],
   [decr] and `x.(i) <- v` / `r.f <- v` (Texp_setfield) are recognised
   structurally as well. *)
let write_op_suffixes =
  [
    [ ":=" ];
    [ "incr" ];
    [ "decr" ];
    [ "Hashtbl"; "add" ];
    [ "Hashtbl"; "replace" ];
    [ "Hashtbl"; "remove" ];
    [ "Hashtbl"; "reset" ];
    [ "Hashtbl"; "clear" ];
    [ "Hashtbl"; "filter_map_inplace" ];
    [ "Array"; "set" ];
    [ "Array"; "unsafe_set" ];
    [ "Array"; "fill" ];
    [ "Array"; "blit" ];
    [ "Array"; "sort" ];
    [ "Array"; "stable_sort" ];
    [ "Array"; "fast_sort" ];
    [ "Bytes"; "set" ];
    [ "Bytes"; "unsafe_set" ];
    [ "Bytes"; "fill" ];
    [ "Bytes"; "blit" ];
    [ "Buffer"; "add_string" ];
    [ "Buffer"; "add_char" ];
    [ "Buffer"; "add_bytes" ];
    [ "Buffer"; "add_substring" ];
    [ "Buffer"; "add_buffer" ];
    [ "Buffer"; "clear" ];
    [ "Buffer"; "reset" ];
    [ "Queue"; "push" ];
    [ "Queue"; "add" ];
    [ "Queue"; "pop" ];
    [ "Queue"; "take" ];
    [ "Queue"; "clear" ];
    [ "Queue"; "transfer" ];
    [ "Stack"; "push" ];
    [ "Stack"; "pop" ];
    [ "Stack"; "clear" ];
  ]

(* Worker-spawning heads: the function argument becomes a new domain
   context. [Domain.spawn] is the primitive; everything else in the tree
   (Pool workers, Skel_mc stages, Farm_mc lanes) bottoms out in it. *)
let spawn_heads = [ [ "Domain"; "spawn" ] ]

(* Higher-order iterators that call their function argument many times: a
   Domain.spawn under one of these is a *replicated* spawn context (N
   domains run the same closure), so a single syntactic site already
   counts as multi-domain sharing. *)
let replicating_heads =
  [
    [ "List"; "init" ]; [ "List"; "map" ]; [ "List"; "mapi" ]; [ "List"; "iter" ];
    [ "List"; "iteri" ]; [ "Array"; "init" ]; [ "Array"; "map" ]; [ "Array"; "mapi" ];
    [ "Array"; "iter" ]; [ "Array"; "iteri" ];
  ]

(* ----------------------------------------------------- R9 spsc-discipline *)

let spsc_create_suffix = [ "Spsc"; "create" ]
let spsc_push_suffixes = [ [ "Spsc"; "push" ]; [ "Spsc"; "push_chunk" ] ]
let spsc_pop_suffixes = [ [ "Spsc"; "pop" ]; [ "Spsc"; "pop_chunk" ] ]

(* ---------------------------------------------------------- R10 job-purity *)

(* Registry files whose record fields listed below bind experiment job
   closures — the roots of the jobs-1 ≡ jobs-N determinism contract. *)
let job_registry_files = [ "lib/exp/registry.ml" ]
let job_field_names = [ "run"; "job" ]

(* Call heads whose function arguments execute on worker domains: stage
   functions of the direct-execution backends, farm workers, and the
   replication-splitting hook. Their closure arguments must be write-pure
   w.r.t. ambient mutable locations. *)
let stage_head_suffixes =
  [
    [ "Skel_mc"; "run" ];
    [ "Skel_mc"; "run_fold" ];
    [ "Skel_mc"; "run_grouped" ];
    [ "Skel_mc"; "run_timed" ];
    [ "Farm_mc"; "map" ];
    [ "Farm_mc"; "map_array" ];
    [ "Common"; "par_map" ];
  ]

(* The R10 scope: job/stage closures anywhere in lib/ are checked; the
   backends' own internals (lib/skel/, lib/runner/) implement the handoff
   machinery itself and answer to R8/R9 instead. *)
let job_purity_scope path =
  starts_with ~prefix:"lib/" path
  && (not (starts_with ~prefix:"lib/skel/" path))
  && not (starts_with ~prefix:"lib/runner/" path)
