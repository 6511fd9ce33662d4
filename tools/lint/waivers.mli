(** Waiver comments: [(* lint: <slug> <justification> *)] trailing the
    flagged line, or alone on the line directly above it, suppresses that
    rule's finding. Each entry tracks whether it ever fired, feeding W1
    unused-waiver. *)

type t

val scan : string -> t
(** Collect all waivers in a source file. *)

val allows : t -> line:int -> slug:string -> bool
(** [true] when [slug] is waived for a finding on [line] (the waiver trails
    [line] itself, or sits alone on [line - 1]). Marks the matching entry
    used. *)

val allows_reasoned : t -> line:int -> slug:string -> bool
(** Like {!allows}, but only a waiver whose slug is followed by
    justification text counts: a bare [(* lint: <slug> *)] waives
    nothing. *)

val entries : t -> (int * string * bool) list
(** All [(line, slug, used)] entries, in file order. *)
