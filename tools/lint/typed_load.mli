(** Loading Typedtrees for the typed pass (R8..R10, W2): cmt and cmti
    files from a dune build directory, or in-process typechecking for test
    fixtures. *)

type unit_input = {
  path : string;  (** root-relative source path, '/'-separated *)
  modname : string;  (** short module name (dune mangling stripped) *)
  structure : Typedtree.structure;
}

type interface = {
  ipath : string;  (** root-relative [.mli] path *)
  imodname : string;  (** short module name *)
  signature : Typedtree.signature;
}

type load_result = {
  units : unit_input list;
  interfaces : interface list;
  errors : string list;
}

val load_tree : root:string -> cmt_root:string -> roots:string list -> load_result
(** Walk [cmt_root] (normally [<root>/_build/default]) for [.cmt]
    implementations and [.cmti] interfaces whose recorded source file sits
    under one of [roots] and still exists under [root]. Deterministic
    (sorted); duplicate source files keep the first cmt. Unreadable cmts
    are reported in [errors], not raised. *)

val fixture : path:string -> string -> (unit_input, string) result
(** Typecheck [source] in-process against the compiler's initial
    environment (stdlib only). For unit tests. *)

val interface_fixture : path:string -> string -> (interface, string) result
(** Like {!fixture}, for an interface ([.mli]) source. *)
