(* aspipe-lint: static analysis enforcing the repo's determinism,
   domain-safety and observability invariants (syntactic rules R1..R7,
   typed rules R8..R10 and W2; see DESIGN.md "Static analysis" / "Typed
   analysis" and `--list-rules`).

   Usage: dune build @lint                       (syntactic pass)
          dune build @lint-typed                 (+ Typedtree pass on cmts)
          dune exec tools/lint/aspipe_lint_cli.exe -- --root . [--json]
          ... --typed [--cmt-root _build/default]
          ... --sarif report.sarif
          ... --severity R2=warning --severity R6=off
          ... --rules R1,R3 lib                  (subset of rules / roots)

   Exit status: 0 when no error-severity finding, 1 when there are
   error-severity findings, 2 on usage errors or internal failures
   (unparseable sources, missing/unreadable cmt files). *)

module Driver = Aspipe_lint.Driver
module Finding = Aspipe_lint.Finding
module Rules = Aspipe_lint.Rules

let usage = "aspipe-lint [options] [scan-roots]"

let () =
  let root = ref "." in
  let json = ref false in
  let typed = ref false in
  let cmt_root = ref None in
  let sarif = ref None in
  let out = ref None in
  let severities = ref [] in
  let rules = ref None in
  let roots = ref [] in
  let list_rules = ref false in
  let fail msg =
    prerr_endline ("aspipe-lint: " ^ msg);
    exit 2
  in
  let set_severity spec =
    match String.index_opt spec '=' with
    | None -> fail (Printf.sprintf "--severity expects RULE=error|warning|off, got %S" spec)
    | Some i ->
        let rule = String.sub spec 0 i in
        let level = String.sub spec (i + 1) (String.length spec - i - 1) in
        if Rules.find rule = None then fail (Printf.sprintf "unknown rule %S" rule);
        let severity =
          match level with
          | "error" -> Some Finding.Error
          | "warning" | "warn" -> Some Finding.Warning
          | "off" -> None
          | other -> fail (Printf.sprintf "unknown severity %S" other)
        in
        severities := (rule, severity) :: !severities
  in
  let set_rules spec =
    let ids = String.split_on_char ',' spec in
    List.iter (fun id -> if Rules.find id = None then fail (Printf.sprintf "unknown rule %S" id)) ids;
    rules := Some ids
  in
  let spec =
    [
      ("--root", Arg.Set_string root, "DIR repository root (default: .)");
      ("--json", Arg.Set json, " render the report as JSON instead of text");
      ( "--typed",
        Arg.Set typed,
        " also run the Typedtree pass (R8..R10, W2) over .cmt files" );
      ( "--cmt-root",
        Arg.String (fun d -> cmt_root := Some d),
        "DIR directory holding the .cmt files (default: <root>/_build/default)" );
      ( "--sarif",
        Arg.String (fun f -> sarif := Some f),
        "FILE also write the findings as SARIF 2.1.0 to FILE" );
      ("--out", Arg.String (fun f -> out := Some f), "FILE also write the report to FILE");
      ( "--severity",
        Arg.String set_severity,
        "RULE=LEVEL override a rule's severity: error, warning or off (repeatable)" );
      ("--rules", Arg.String set_rules, "IDS comma-separated rule ids to run (default: all)");
      ("--list-rules", Arg.Set list_rules, " print the rule catalogue and exit");
    ]
  in
  Arg.parse spec (fun dir -> roots := dir :: !roots) usage;
  if !list_rules then begin
    List.iter
      (fun (r : Rules.t) ->
        Printf.printf "%s %-26s waiver `(* lint: %s ... *)`\n    %s\n" r.id r.name r.slug r.summary)
      Rules.all;
    exit 0
  end;
  let options =
    {
      Driver.root = !root;
      roots = (match List.rev !roots with [] -> Driver.default.Driver.roots | rs -> rs);
      rules = !rules;
      severities = !severities;
      typed = !typed;
      cmt_root = !cmt_root;
    }
  in
  match Driver.scan options with
  | exception Failure msg -> fail msg
  | report ->
      let rendered =
        if !json then Driver.render_json options report else Driver.render_text report
      in
      print_string rendered;
      (match !out with
      | Some file ->
          Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc rendered)
      | None -> ());
      (match !sarif with
      | Some file ->
          Out_channel.with_open_bin file (fun oc ->
              Out_channel.output_string oc (Driver.render_sarif report))
      | None -> ());
      exit (Driver.exit_code report)
