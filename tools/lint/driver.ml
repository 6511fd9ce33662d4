(* Tree scan + reporting: walk the scan roots, run the syntactic pass on
   every .ml/.mli, optionally run the typed (cmt-based) pass over the same
   tree (with W2 when the scan covers the whole tree), apply severity
   overrides, flag unused waivers (W1), and render the result as text,
   JSON or SARIF. *)

type options = {
  root : string;  (* repository root *)
  roots : string list;  (* scan roots relative to [root] *)
  rules : string list option;  (* only these rule ids (syntax always on) *)
  severities : (string * Finding.severity option) list;
      (* per-rule overrides; [None] switches the rule off *)
  typed : bool;  (* also run the Typedtree pass (R8..R10, W2) *)
  cmt_root : string option;  (* where to look for .cmt files; default
                                <root>/_build/default *)
}

let default =
  {
    root = ".";
    roots = Config.scan_roots;
    rules = None;
    severities = [];
    typed = false;
    cmt_root = None;
  }

(* "syntax" (unparseable input) and "internal" (typed-pass infrastructure
   failure: missing/unreadable cmts) are not catalogue rules: they are
   always on and map to exit code 2. *)
let internal_rules = [ "syntax"; "internal" ]

let resolve opts (f : Finding.t) =
  let enabled =
    List.mem f.rule internal_rules
    || match opts.rules with None -> true | Some ids -> List.mem f.rule ids
  in
  if not enabled then None
  else
    match List.assoc_opt f.rule opts.severities with
    | Some None -> None
    | Some (Some severity) -> Some { f with severity }
    | None -> Some f

let check_source opts ~path source =
  List.filter_map (resolve opts) (Checker.check ~path source)

type report = {
  files_scanned : int;
  typed_ran : bool;
  typed_units : int;
  findings : Finding.t list;
}

let errors r =
  List.length (List.filter (fun f -> f.Finding.severity = Finding.Error) r.findings)

let warnings r =
  List.length (List.filter (fun f -> f.Finding.severity = Finding.Warning) r.findings)

let internal_failures r =
  List.length (List.filter (fun f -> List.mem f.Finding.rule internal_rules) r.findings)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Sorted, deterministic directory walk; [rel] keeps '/'-separated
   root-relative names for scope matching and reporting. *)
let rec collect ~dir ~rel acc =
  let entries = Sys.readdir dir in
  Array.sort compare entries;
  Array.fold_left
    (fun acc name ->
      let abs = Filename.concat dir name and r = rel ^ "/" ^ name in
      if Sys.is_directory abs then collect ~dir:abs ~rel:r acc
      else if Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli" then
        (abs, r) :: acc
      else acc)
    acc entries

let internal_finding message =
  { Finding.rule = "internal"; severity = Finding.Error; file = "."; line = 0; col = 0; message }

(* The cmts under [cmt_root] for the units below [roots]. *)
let load_cmts opts roots =
  let cmt_root =
    match opts.cmt_root with
    | Some dir -> dir
    | None -> Filename.concat opts.root (Filename.concat "_build" "default")
  in
  if not (Sys.file_exists cmt_root && Sys.is_directory cmt_root) then
    Error
      (Printf.sprintf
         "typed pass: cmt directory %S not found; run `dune build @lint-typed` \
          (or any full build) first, or pass --cmt-root"
         cmt_root)
  else Ok (Typed_load.load_tree ~root:opts.root ~cmt_root ~roots)

(* W2 reads a missing cmt as a missing user, so it runs only when every
   source under its user roots was loaded. Returns the findings and
   whether W2 ran. *)
let unused_exports opts tables (lr : Typed_load.load_result) =
  let loaded = Hashtbl.create 256 in
  List.iter (fun (u : Typed_load.unit_input) -> Hashtbl.replace loaded u.path ()) lr.units;
  List.iter (fun (i : Typed_load.interface) -> Hashtbl.replace loaded i.ipath ()) lr.interfaces;
  let missing =
    List.concat_map
      (fun r ->
        let dir = Filename.concat opts.root r in
        if Sys.file_exists dir then collect ~dir ~rel:r [] else [])
      Config.export_user_roots
    |> List.filter_map (fun (_, rel) ->
           let wanted =
             Filename.check_suffix rel ".ml" || String.starts_with ~prefix:"lib/" rel
           in
           if wanted && not (Hashtbl.mem loaded rel) then Some rel else None)
  in
  if missing <> [] then
    ( [
        internal_finding
          (Printf.sprintf
             "W2: no .cmt/.cmti for %s; build the whole tree (`dune build @check`) \
              first"
             (String.concat ", " (List.sort compare missing)));
      ],
      false )
  else
    ( Typed_check.unused_exports
        (List.filter_map
           (fun (i : Typed_load.interface) ->
             if String.starts_with ~prefix:"lib/" i.ipath then
               Option.map (fun w -> (i, w)) (Hashtbl.find_opt tables i.ipath)
             else None)
           lr.interfaces)
        lr.units,
      true )

(* The typed pass: load the units (on a whole-tree scan also the
   examples, W2's extra users), pair each scanned unit with the waiver
   table its source's syntactic scan already built (so waiver usage
   accumulates across both passes), and run the whole-tree analyses.
   Returns the findings, the units analysed and whether W2 ran. *)
let run_typed opts tables load =
  let whole_tree = List.sort compare opts.roots = List.sort compare Config.scan_roots in
  match load (if whole_tree then Config.export_user_roots else opts.roots) with
  | Error msg -> ([ internal_finding msg ], 0, false)
  | Ok (lr : Typed_load.load_result) ->
      let load_findings = List.map internal_finding lr.errors in
      if lr.units = [] then
        ( internal_finding
            "typed pass: no .cmt files for the scan roots; run `dune build \
             @lint-typed` first"
          :: load_findings,
          0,
          false )
      else
        let inputs =
          List.filter_map
            (fun (u : Typed_load.unit_input) ->
              match Hashtbl.find_opt tables u.path with
              | Some waivers -> Some { Typed_check.unit_ = u; waivers }
              | None -> None)
            lr.units
        in
        let w2, w2_ran = if whole_tree then unused_exports opts tables lr else ([], false) in
        (load_findings @ Typed_check.run inputs @ w2, List.length inputs, w2_ran)

(* W1: any waiver entry still unused after every pass that could have fired
   it. Unknown slugs are always reported; known slugs only when their rule
   was actually part of this scan (enabled, and — for R8..R10 — the typed
   pass ran; for W2, a whole-tree typed pass), so a typed-rule waiver
   survives a syntactic-only scan. *)
let unused_waivers opts ~typed_ran ~w2_ran tables =
  let rule_enabled id =
    (match opts.rules with None -> true | Some ids -> List.mem id ids)
    && (match List.assoc_opt id opts.severities with Some None -> false | _ -> true)
  in
  let ran id =
    if id = "W2" then w2_ran else (not (List.mem id Rules.typed_ids)) || typed_ran
  in
  let active_slug slug =
    List.exists
      (fun (r : Rules.t) -> r.slug = slug && r.id <> "W1" && rule_enabled r.id && ran r.id)
      Rules.all
  in
  let findings = ref [] in
  Hashtbl.iter
    (fun path waivers ->
      List.iter
        (fun (line, slug, used) ->
          if not used then
            let unknown = not (List.mem slug Rules.slugs) in
            if unknown || active_slug slug then
              if not (Waivers.allows waivers ~line ~slug:"unused-waiver-ok") then
                findings :=
                  {
                    Finding.rule = "W1";
                    severity = Finding.Error;
                    file = path;
                    line;
                    col = 0;
                    message =
                      (if unknown then
                         Printf.sprintf
                           "unknown waiver slug `%s`; see --list-rules for the \
                            catalogue"
                           slug
                       else
                         Printf.sprintf
                           "waiver `%s` never fired at this site; delete it (a dead \
                            waiver can mask a future regression)"
                           slug);
                  }
                  :: !findings)
        (Waivers.entries waivers))
    tables;
  !findings

let scan_with ~load opts =
  let files =
    List.concat_map
      (fun r ->
        let dir = Filename.concat opts.root r in
        if not (Sys.file_exists dir && Sys.is_directory dir) then
          failwith (Printf.sprintf "aspipe-lint: scan root %S not found under %S" r opts.root);
        collect ~dir:dir ~rel:r [])
      opts.roots
  in
  let files = List.sort compare files in
  (* One shared, usage-tracked waiver table per file: the syntactic pass,
     the typed pass and W1 all mark the same entries. *)
  let tables : (string, Waivers.t) Hashtbl.t = Hashtbl.create 64 in
  let syntactic =
    List.concat_map
      (fun (abs, rel) ->
        let source = read_file abs in
        let waivers = Waivers.scan source in
        Hashtbl.replace tables rel waivers;
        Checker.check ~waivers ~path:rel source)
      files
  in
  let typed_findings, typed_units, w2_ran =
    if opts.typed then run_typed opts tables load else ([], 0, false)
  in
  (* The typed rules only "ran" for W1 purposes when units were analysed;
     a failed cmt lookup already yields an internal finding. *)
  let typed_ran = opts.typed && typed_units > 0 in
  let w1 = unused_waivers opts ~typed_ran ~w2_ran:(typed_ran && w2_ran) tables in
  let findings =
    List.filter_map (resolve opts) (syntactic @ typed_findings @ w1)
  in
  {
    files_scanned = List.length files;
    typed_ran;
    typed_units;
    findings = List.sort Finding.compare findings;
  }

let scan opts = scan_with ~load:(load_cmts opts) opts

let summary_line r =
  Printf.sprintf "aspipe-lint: %d files scanned%s, %d errors, %d warnings"
    r.files_scanned
    (if r.typed_ran then Printf.sprintf " (typed pass over %d units)" r.typed_units
     else "")
    (errors r) (warnings r)

let render_text r =
  let buffer = Buffer.create 256 in
  List.iter
    (fun f ->
      Buffer.add_string buffer (Finding.to_string f);
      Buffer.add_char buffer '\n')
    r.findings;
  Buffer.add_string buffer (summary_line r);
  Buffer.add_char buffer '\n';
  Buffer.contents buffer

let to_json opts r =
  Aspipe_obs.Json.Obj
    [
      ("tool", Aspipe_obs.Json.String "aspipe-lint");
      ("version", Aspipe_obs.Json.Int 1);
      ("catalogue_version", Aspipe_obs.Json.Int Rules.catalogue_version);
      ("roots", Aspipe_obs.Json.List (List.map (fun s -> Aspipe_obs.Json.String s) opts.roots));
      ("files_scanned", Aspipe_obs.Json.Int r.files_scanned);
      ("typed", Aspipe_obs.Json.Bool r.typed_ran);
      ("typed_units", Aspipe_obs.Json.Int r.typed_units);
      ("findings", Aspipe_obs.Json.List (List.map Finding.to_json r.findings));
      ( "summary",
        Aspipe_obs.Json.Obj
          [
            ("errors", Aspipe_obs.Json.Int (errors r));
            ("warnings", Aspipe_obs.Json.Int (warnings r));
            ("internal_failures", Aspipe_obs.Json.Int (internal_failures r));
          ] );
    ]

let render_json opts r = Aspipe_obs.Json.to_string (to_json opts r) ^ "\n"
let render_sarif r = Sarif.render r.findings

(* Exit status for a report: 2 on infrastructure failure (unparseable
   input, missing/unreadable cmts), 1 on error-severity findings, else 0. *)
let exit_code r =
  if internal_failures r > 0 then 2 else if errors r > 0 then 1 else 0
