(* Loading Typedtrees for the typed pass (R8..R10, W2).

   Two sources:

   - [load_tree] walks a dune build directory (normally `_build/default`)
     for `.cmt` and `.cmti` files, keeping implementations and interfaces
     whose recorded source file sits under one of the scan roots. Dune
     writes both by default (`-bin-annot` is on), so `dune build @check`
     — or any full build — is enough to feed the pass.

   - [fixture] typechecks a source snippet in-process against the
     compiler's initial environment, so unit tests can exercise the typed
     analyses without a dune build. Fixtures may reference only the stdlib
     plus modules they define themselves; a local `module Spsc = struct
     ... end` stands in for the real ring because all typed-pass matching
     is on path *suffixes*. *)

type unit_input = {
  path : string;  (* root-relative source path, '/'-separated *)
  modname : string;  (* short module name, mangling stripped *)
  structure : Typedtree.structure;
}

type interface = { ipath : string; imodname : string; signature : Typedtree.signature }

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let under_roots roots path =
  List.exists (fun r -> starts_with ~prefix:(r ^ "/") path || path = r) roots

(* Normalise the cmt's recorded source path: dune records it relative to
   the context root ("lib/util/spsc.ml"), already '/'-separated. *)
let normalize p =
  let p = if Filename.is_relative p then p else p in
  String.concat "/" (String.split_on_char '\\' p)

let rec walk_cmts dir acc =
  match Sys.readdir dir with
  | entries ->
      Array.sort compare entries;
      Array.fold_left
        (fun acc name ->
          let abs = Filename.concat dir name in
          if Sys.is_directory abs then walk_cmts abs acc
          else if Filename.check_suffix name ".cmt" || Filename.check_suffix name ".cmti"
          then abs :: acc
          else acc)
        acc entries
  | exception Sys_error _ -> acc

type load_result = {
  units : unit_input list;
  interfaces : interface list;
  errors : string list;
}

let load_tree ~root ~cmt_root ~roots =
  let cmts = List.sort compare (walk_cmts cmt_root []) in
  let seen = Hashtbl.create 64 in
  let units = ref [] and interfaces = ref [] and errors = ref [] in
  (* Keep only real sources under the scan roots; generated files
     (`.ml-gen` alias modules, ppx output) have no counterpart on disk and
     are skipped. *)
  let fresh path suffix =
    let keep =
      under_roots roots path
      && Filename.check_suffix path suffix
      && Sys.file_exists (Filename.concat root path)
      && not (Hashtbl.mem seen path)
    in
    if keep then Hashtbl.add seen path ();
    keep
  in
  List.iter
    (fun cmt ->
      match Cmt_format.read_cmt cmt with
      | exception exn ->
          errors :=
            Printf.sprintf "%s: unreadable cmt (%s)" cmt (Printexc.to_string exn) :: !errors
      | info -> (
          let modname = Tast_util.short_module_name info.Cmt_format.cmt_modname in
          match (info.Cmt_format.cmt_sourcefile, info.Cmt_format.cmt_annots) with
          | Some src, Cmt_format.Implementation structure ->
              let path = normalize src in
              if fresh path ".ml" then units := { path; modname; structure } :: !units
          | Some src, Cmt_format.Interface signature ->
              let ipath = normalize src in
              if fresh ipath ".mli" then
                interfaces := { ipath; imodname = modname; signature } :: !interfaces
          | _ -> ()))
    cmts;
  {
    units = List.sort (fun a b -> compare a.path b.path) !units;
    interfaces = List.sort (fun a b -> compare a.ipath b.ipath) !interfaces;
    errors = List.rev !errors;
  }

(* In-process typechecking for test fixtures. [Compmisc.init_path] seeds
   the load path with the stdlib; the environment is cached because
   re-initialising per fixture is needlessly slow. *)
let initial_env = lazy (
  Compmisc.init_path ();
  Compmisc.initial_env ())

let typecheck ~path source check =
  let env = Lazy.force initial_env in
  let modname =
    String.capitalize_ascii Filename.(remove_extension (basename path))
  in
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf path;
  match check env lexbuf with
  | tree -> Ok (modname, tree)
  | exception exn ->
      let msg =
        match Location.error_of_exn exn with
        | Some (`Ok report) ->
            Format.asprintf "%a" Location.print_report report
        | _ -> Printexc.to_string exn
      in
      Error msg

let fixture ~path source =
  typecheck ~path source (fun env lexbuf ->
      let structure, _, _, _, _ = Typemod.type_structure env (Parse.implementation lexbuf) in
      structure)
  |> Result.map (fun (modname, structure) -> { path; modname; structure })

let interface_fixture ~path source =
  typecheck ~path source (fun env lexbuf ->
      Typemod.transl_signature env (Parse.interface lexbuf))
  |> Result.map (fun (imodname, signature) -> { ipath = path; imodname; signature })
