(** The typed (Typedtree) pass: interprocedural analyses R8..R10, and W2
    over the interfaces ({!unused_exports}).

    [run] takes every unit of the scanned tree at once — the analyses are
    whole-library: R8 reachability, R9 parameter summaries and R10 write
    cones all follow the cross-unit mention graph. Waiver tables are the
    same usage-tracked values the syntactic pass used, so a suppression
    here counts for W1, and a location-level [shared-state-ok] /
    [domain-shared-ok] waiver excludes the location from R8 and R10
    alike. Findings come back at [Error] severity, sorted and deduplicated;
    the driver applies severity overrides. *)

type input = { unit_ : Typed_load.unit_input; waivers : Waivers.t }

val run : input list -> Finding.t list

val unused_exports :
  (Typed_load.interface * Waivers.t) list -> Typed_load.unit_input list -> Finding.t list
(** W2: every [val] of the given interfaces (with their files' waiver
    tables) that none of [units] outside its own module names, sorted.
    Units outside {!Config.export_user} are ignored, and module aliases
    are resolved. Only a waiver with justification text suppresses. *)
