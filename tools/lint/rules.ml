(* The rule catalogue. Every rule has a stable id (used in reports and
   severity overrides) and a waiver slug: a comment

     (* lint: <slug> <justification> *)

   on the flagged line or the line directly above suppresses the finding.
   The scopes and allowlists each rule closes over live in [Config]; the
   catalogue here is what `--list-rules` and DESIGN.md document. *)

type t = {
  id : string;
  name : string;
  slug : string;  (* waiver token *)
  summary : string;
}

let all =
  [
    {
      id = "R1";
      name = "no-wall-clock";
      slug = "wall-clock-ok";
      summary =
        "virtual-time code must not read the wall clock \
         (Unix.gettimeofday/Unix.time/Sys.time); only the runner and the \
         direct-execution engines (lib/runner/, lib/skel/skel_mc.ml, \
         lib/exp/exp_mc.ml) measure real elapsed time";
    };
    {
      id = "R2";
      name = "deterministic-iteration";
      slug = "unordered-ok";
      summary =
        "Hashtbl.iter/Hashtbl.fold walk in hash order; the enclosing \
         structure-level binding must sort the result (List.sort/Array.sort) \
         before anything renders it";
    };
    {
      id = "R3";
      name = "no-raw-print";
      slug = "raw-print-ok";
      summary =
        "library code prints only through Aspipe_util.Out (so --jobs N \
         capture stays byte-identical with --jobs 1); stdout printers are \
         allowed only in lib/util/out.ml";
    };
    {
      id = "R4";
      name = "guarded-hot-emit";
      slug = "unguarded-emit-ok";
      summary =
        "per-item Bus.emit call sites must sit under an `if Bus.active ...` \
         (or `when Bus.active ...`) guard; sparse control events \
         (crash/recovery, adaptation decisions, failover) are exempt";
    };
    {
      id = "R5";
      name = "domain-safety";
      slug = "shared-state-ok";
      summary =
        "structure-level ref/Hashtbl.create/Buffer.create/Queue.create \
         /Spsc.create bindings in lib/ are state shared across \
         campaign worker domains; they must be Atomic.t, Domain.DLS, or \
         created per run";
    };
    {
      id = "R6";
      name = "banned-construct";
      slug = "banned-ok";
      summary =
        "Obj.magic/Obj.repr, Random.self_init and physical (in)equality \
         (==/!=) are banned: each one breaks reproducibility or type safety";
    };
    {
      id = "R7";
      name = "guarded-prof-record";
      slug = "unguarded-prof-ok";
      summary =
        "profiler probes (Prof.record/Prof.record_gc) in lib/ must sit \
         under an `if Prof.enabled () ...` (or `when Prof.enabled () ...`) \
         guard so profiler-off runs never build span arguments; lib/prof/ \
         itself re-checks the flag and is exempt";
    };
    {
      id = "R8";
      name = "mutable-escape";
      slug = "domain-shared-ok";
      summary =
        "[typed] an ambient mutable location (ref, Hashtbl, array, Buffer, \
         mutable record) that is written and reachable from a Domain.spawn \
         worker body is shared across domains without synchronisation; make \
         it Atomic.t/Domain.DLS, guard it with a Mutex field, or keep it out \
         of spawned closures — subsumes and de-syntactifies R5";
    };
    {
      id = "R9";
      name = "spsc-discipline";
      slug = "spsc-ok";
      summary =
        "[typed] each Spsc.create ring must keep its push* call sites in at \
         most one spawn context and its pop* call sites in at most one spawn \
         context along the call graph — the lock-free ring is only correct \
         under single-producer/single-consumer usage";
    };
    {
      id = "R10";
      name = "job-purity";
      slug = "impure-job-ok";
      summary =
        "[typed] registry job closures and stage functions handed to \
         Skel_sim/Skel_mc/Farm_mc/Common.par_map must not write any ambient \
         mutable location (module state or captured locals) except through \
         the sanctioned Aspipe_util.Out capture and Atomic/DLS cells — the \
         static underwriting of the jobs-1 ≡ jobs-N determinism contract";
    };
    {
      id = "W1";
      name = "unused-waiver";
      slug = "unused-waiver-ok";
      summary =
        "a `(* lint: <slug> ... *)` comment whose rule never fires at that \
         site is dead and could mask a future regression; delete it (only \
         slugs of rules that actually ran in the pass are considered, so a \
         typed-rule waiver survives a syntactic-only scan)";
    };
    {
      id = "W2";
      name = "unused-export";
      slug = "unused-export-ok";
      summary =
        "[typed, whole tree] a `val` of a lib/ interface that no unit outside \
         its own module names (lib/, bin/, bench/ and examples/ count; test/ \
         does not) is dead public surface: delete it, or drop it from the \
         .mli when only its own module uses it; the waiver must state a \
         reason (deliberate public API, or a differential reference a test \
         compares against)";
    };
  ]

(* Bumped whenever a rule is added, removed or renamed; reported in the
   JSON and SARIF outputs so archived reports are comparable. v1 = R1..R7,
   v2 adds the typed rules R8..R10 and W1, v3 adds W2. *)
let catalogue_version = 3

let find id = List.find_opt (fun r -> r.id = id) all

let get id =
  match find id with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Rules.get: unknown rule %S" id)

let ids = List.map (fun r -> r.id) all

(* The rules whose findings only the cmt-based pass can produce: their
   waiver slugs are exempt from W1 when the typed pass did not run. *)
let typed_ids = [ "R8"; "R9"; "R10"; "W2" ]
let slugs = List.map (fun r -> r.slug) all
let slug_of_rule id = (get id).slug
