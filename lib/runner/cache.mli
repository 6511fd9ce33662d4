(** Content-addressed cache of experiment outputs.

    Keys hash the experiment identity (id, title, quick flag) together with
    the digest of the running executable, so a rebuild invalidates every
    entry and [campaign --only] reruns of unchanged code skip straight to the
    stored bytes. Entries are plain [<md5hex>.out] text files. *)

type t

val open_ : dir:string -> t option
(** Create/open the cache directory. [None] when the executable cannot be
    digested (no safe code-version key — caching refused). *)

val key : t -> id:string -> title:string -> quick:bool -> string
(** The content address (md5 hex) of one experiment under the current
    code version. *)

val find : t -> string -> string option
(** Stored output for a key, if present and readable. *)

val store : t -> string -> string -> unit
(** [store t key output] persists atomically (write + rename); IO errors
    are swallowed — the cache is an optimisation, never a correctness
    dependency. *)
