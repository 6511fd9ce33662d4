(** Rule scopes and allowlists (root-relative, '/'-separated paths). *)

val scan_roots : string list
(** Directories linted by default: [lib], [bin], [bench]. *)

val export_user_roots : string list
(** W2's users: [lib], [bin], [bench] and [examples]; not [test]. *)

val export_user : string -> bool
(** Is the unit at this path under {!export_user_roots}? *)

val wall_clock_idents : string list
val wall_clock_allowed : string -> bool

val unordered_walk_idents : string list
val sort_suffixes : string list list

val raw_print_scope : string -> bool
val raw_print_idents : string list

val control_events : string list

val shared_state_scope : string -> bool
val shared_state_heads : string list

val banned_idents : string list
val banned_operators : string list

val prof_record_suffixes : string list list
(** Dotted-path suffixes of profiler record calls ([Prof.record],
    [Prof.record_gc]) that R7 requires under a [Prof.enabled] guard. *)

val prof_enabled_suffix : string list
(** Dotted-path suffix of the profiler's flag read ([Prof.enabled]). *)

val prof_record_scope : string -> bool
(** Where R7 applies: [lib/] minus [lib/prof/] (the recorder itself
    re-checks the flag). *)

(** {2 Typed pass (R8..R10)} — all matching is on resolved-[Path.t]
    suffixes, robust against module aliases and dune name mangling. *)

val mutable_heads : string list list
(** Expression heads allocating an ambient mutable location (R8). *)

val sync_heads : string list list
(** Heads whose result is synchronised (Atomic/DLS/Mutex) or delegated to
    its own analysis (Spsc → R9); never an R8 location. *)

val mutex_guard_heads : string list list
(** A mutable record literal with a field built from one of these heads is
    treated as mutex-guarded state (the Pool pattern). *)

val write_op_suffixes : string list list
(** Functions that mutate their first positional argument; [:=]/[incr]/
    [decr] and [Texp_setfield] are also recognised structurally. *)

val spawn_heads : string list list
(** Heads whose function argument runs on a new domain ([Domain.spawn]). *)

val replicating_heads : string list list
(** Higher-order iterators that make a nested [Domain.spawn] a replicated
    (multi-domain) context. *)

val spsc_create_suffix : string list
val spsc_push_suffixes : string list list
val spsc_pop_suffixes : string list list

val job_registry_files : string list
val job_field_names : string list
(** Files/record-field names binding registry job closures (R10 roots). *)

val stage_head_suffixes : string list list
(** Call heads whose closure arguments execute on worker domains (R10). *)

val job_purity_scope : string -> bool
(** Where R10 applies: [lib/] minus the backends' own internals
    ([lib/skel/], [lib/runner/]). *)
