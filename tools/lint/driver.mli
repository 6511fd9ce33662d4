(** Tree scan + reporting. *)

type options = {
  root : string;  (** repository root *)
  roots : string list;  (** scan roots relative to [root] *)
  rules : string list option;  (** run only these rule ids; ["syntax"] is always on *)
  severities : (string * Finding.severity option) list;
      (** per-rule severity overrides; [None] switches the rule off *)
  typed : bool;  (** also run the Typedtree pass (R8..R10, W2) over .cmt files *)
  cmt_root : string option;
      (** where to look for .cmt files; default [<root>/_build/default] *)
}

val default : options
(** Root ["."], roots [Config.scan_roots], all rules at error severity,
    typed pass off. *)

val check_source : options -> path:string -> string -> Finding.t list
(** Lint one in-memory source (syntactic pass only); [path] is the
    root-relative name the rule scopes key on. *)

type report = {
  files_scanned : int;
  typed_ran : bool;  (** the typed pass analysed at least one unit *)
  typed_units : int;
  findings : Finding.t list;
}

val scan : options -> report
(** Walk the scan roots (deterministic order), lint every .ml/.mli, run
    the typed pass when [typed] is set, and append W1 unused-waiver
    findings. The typed pass runs W2 only when the roots are the whole
    tree ({!Config.scan_roots}); it then also loads the examples' units as
    users. @raise Failure when a scan root is missing. *)

val scan_with :
  load:(string list -> (Typed_load.load_result, string) result) -> options -> report
(** {!scan} with the typed pass fed by [load roots] instead of the cmts
    under [cmt_root]; [Error] becomes an internal finding. For tests. *)

val errors : report -> int
val warnings : report -> int

val internal_failures : report -> int
(** Findings with rule ["syntax"] or ["internal"]: infrastructure
    failures, mapped to exit code 2. *)

val exit_code : report -> int
(** 2 on internal failures, 1 on error-severity findings, else 0. *)

val summary_line : report -> string
val render_text : report -> string
val render_json : options -> report -> string
val render_sarif : report -> string
