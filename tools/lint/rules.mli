(** The rule catalogue: stable ids, waiver slugs, one-line summaries. *)

type t = {
  id : string;  (** "R1".."R10", "W1", "W2" *)
  name : string;  (** short kebab-case name, e.g. "no-wall-clock" *)
  slug : string;  (** waiver token accepted in [(* lint: <slug> ... *)] *)
  summary : string;
}

val all : t list
val find : string -> t option
val get : string -> t
(** Like {!find}; raises [Invalid_argument] on an unknown id. *)

val ids : string list

val catalogue_version : int
(** Bumped on any rule addition/removal/rename; carried in the JSON and
    SARIF reports. *)

val typed_ids : string list
(** Rules only the cmt-based typed pass can fire (R8..R10, W2); their
    slugs are exempt from W1 when the typed pass did not run (W2's also
    when the scan did not cover the whole tree). *)

val slugs : string list
val slug_of_rule : string -> string
