(* Tests for aspipe-lint: one positive / negative / waiver triple per rule
   (syntactic fixtures are inline snippets that need to parse, not
   typecheck; typed fixtures are typechecked in-process against the
   stdlib), severity plumbing, exit codes, SARIF, W1, W2, and self-checks
   that the shipped tree is clean under both passes. *)

module Checker = Aspipe_lint.Checker
module Driver = Aspipe_lint.Driver
module Finding = Aspipe_lint.Finding
module Rules = Aspipe_lint.Rules
module Waivers = Aspipe_lint.Waivers
module Typed_load = Aspipe_lint.Typed_load
module Typed_check = Aspipe_lint.Typed_check
module Sarif = Aspipe_lint.Sarif
module Json = Aspipe_obs.Json

let lint ?(path = "lib/demo/demo.ml") source = Checker.check ~path source
let rules_of findings = List.map (fun f -> f.Finding.rule) findings
let rule_list = Alcotest.(check (list string))

(* ------------------------------------------------------------------- R1 *)

let test_r1_wall_clock () =
  let src = "let elapsed () = Unix.gettimeofday ()\n" in
  rule_list "flagged in simulator code" [ "R1" ] (rules_of (lint ~path:"lib/grid/clock.ml" src));
  rule_list "Sys.time flagged too" [ "R1" ]
    (rules_of (lint ~path:"lib/core/x.ml" "let t () = Sys.time ()\n"));
  rule_list "runner allowlisted" [] (rules_of (lint ~path:"lib/runner/pool.ml" src));
  rule_list "direct-execution engine allowlisted" []
    (rules_of (lint ~path:"lib/skel/skel_mc.ml" src));
  rule_list "exp_mc allowlisted" [] (rules_of (lint ~path:"lib/exp/exp_mc.ml" src));
  let mono = "let now () = Monotonic_clock.now ()\n" in
  rule_list "monotonic clock is still a real clock in DES code" [ "R1" ]
    (rules_of (lint ~path:"lib/des/engine.ml" mono));
  rule_list "core code cannot use it either" [ "R1" ]
    (rules_of (lint ~path:"lib/core/x.ml" mono));
  rule_list "the profiler may" [] (rules_of (lint ~path:"lib/prof/prof.ml" mono));
  let waived = "(* lint: wall-clock-ok measuring a real solve *)\nlet elapsed () = Unix.gettimeofday ()\n" in
  rule_list "waiver on the line above" [] (rules_of (lint waived))

(* ------------------------------------------------------------------- R2 *)

let test_r2_unordered_iteration () =
  rule_list "bare Hashtbl.iter flagged" [ "R2" ]
    (rules_of (lint "let render h = Hashtbl.iter (fun k v -> ignore (k, v)) h\n"));
  rule_list "Hashtbl.fold flagged" [ "R2" ]
    (rules_of (lint "let keys h = Hashtbl.fold (fun k _ acc -> k :: acc) h []\n"));
  rule_list "sort in the same binding passes" []
    (rules_of
       (lint "let keys h = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) h [])\n"));
  rule_list "sort later in the same binding passes" []
    (rules_of
       (lint
          "let render h =\n\
          \  let acc = ref [] in\n\
          \  Hashtbl.iter (fun k v -> acc := (k, v) :: !acc) h;\n\
          \  List.sort compare !acc\n"));
  rule_list "sort in a different binding does not excuse it" [ "R2" ]
    (rules_of
       (lint
          "let sorted xs = List.sort compare xs\n\
           let render h = Hashtbl.iter (fun k v -> ignore (k, v)) h\n"));
  rule_list "same-line waiver" []
    (rules_of
       (lint "let total h = Hashtbl.fold (fun _ v a -> v + a) h 0 (* lint: unordered-ok sum commutes *)\n"))

(* ------------------------------------------------------------------- R3 *)

let test_r3_raw_print () =
  let src = "let banner () = print_endline \"hi\"\n" in
  rule_list "direct print in lib flagged" [ "R3" ] (rules_of (lint src));
  rule_list "Stdlib-qualified flagged" [ "R3" ]
    (rules_of (lint "let f () = Stdlib.print_string \"x\"\n"));
  rule_list "Printf.printf flagged" [ "R3" ]
    (rules_of (lint "let f n = Printf.printf \"%d\" n\n"));
  rule_list "executables may print" [] (rules_of (lint ~path:"bin/aspipe_cli.ml" src));
  rule_list "bench may print" [] (rules_of (lint ~path:"bench/layers/main.ml" src));
  rule_list "lib/util/out.ml is the one allowed module" []
    (rules_of (lint ~path:"lib/util/out.ml" src));
  rule_list "Out.print_string is the sanctioned route" []
    (rules_of (lint "let f s = Out.print_string s\n"));
  rule_list "pp to a formatter is fine" []
    (rules_of (lint "let pp ppf t = Format.pp_print_string ppf t\n"))

(* ------------------------------------------------------------------- R4 *)

let test_r4_guarded_emit () =
  rule_list "unguarded per-item emit flagged" [ "R4" ]
    (rules_of (lint "let f bus item = Bus.emit bus (Event.Completion { item })\n"));
  rule_list "if Bus.active guard passes" []
    (rules_of
       (lint
          "let f bus item =\n\
          \  if Bus.active bus then Bus.emit bus (Event.Completion { item })\n"));
  rule_list "qualified guard and emit pass" []
    (rules_of
       (lint
          "let f bus item =\n\
          \  if Aspipe_obs.Bus.active bus then\n\
          \    Aspipe_obs.Bus.emit bus (Aspipe_obs.Event.Completion { item })\n"));
  rule_list "when Bus.active match guard passes" []
    (rules_of
       (lint
          "let f opt item =\n\
          \  match opt with\n\
          \  | Some bus when Bus.active bus -> Bus.emit bus (Event.Completion { item })\n\
          \  | _ -> ()\n"));
  rule_list "emit in the else branch stays flagged" [ "R4" ]
    (rules_of
       (lint
          "let f bus item =\n\
          \  if Bus.active bus then () else Bus.emit bus (Event.Completion { item })\n"));
  rule_list "control events are exempt" []
    (rules_of (lint "let f bus node = Bus.emit bus (Event.Node_crashed { node })\n"));
  rule_list "adaptation decisions are control events" []
    (rules_of
       (lint
          "let f bus m t =\n\
          \  Bus.emit bus (Event.Adaptation_rejected { mapping = m; observed_throughput = t })\n"));
  rule_list "waiver" []
    (rules_of
       (lint
          "let f bus item =\n\
          \  (* lint: unguarded-emit-ok exercising the emit path itself *)\n\
          \  Bus.emit bus (Event.Completion { item })\n"))

(* ------------------------------------------------------------------- R5 *)

let test_r5_shared_state () =
  rule_list "structure-level ref flagged" [ "R5" ]
    (rules_of (lint "let hook = ref None\n"));
  rule_list "structure-level Hashtbl flagged" [ "R5" ]
    (rules_of (lint "let table = Hashtbl.create 16\n"));
  rule_list "annotated binding still flagged" [ "R5" ]
    (rules_of (lint "let cell : int ref = ref 0\n"));
  rule_list "Atomic passes" [] (rules_of (lint "let counter = Atomic.make 0\n"));
  rule_list "Domain.DLS passes" []
    (rules_of (lint "let key = Domain.DLS.new_key (fun () -> ref [])\n"));
  rule_list "locals are fine" []
    (rules_of (lint "let f xs = let acc = ref 0 in List.iter (fun x -> acc := !acc + x) xs; !acc\n"));
  rule_list "constructor functions are fine" []
    (rules_of (lint "let create () = Hashtbl.create 16\n"));
  rule_list "nested module state flagged" [ "R5" ]
    (rules_of (lint "module M = struct let cache = Hashtbl.create 8 end\n"));
  rule_list "structure-level Spsc ring flagged" [ "R5" ]
    (rules_of (lint "let ring = Spsc.create ~capacity:64\n"));
  rule_list "qualified Spsc flagged too" [ "R5" ]
    (rules_of (lint "let ring = Aspipe_util.Spsc.create ~capacity:64\n"));
  rule_list "per-run channel creation is fine" []
    (rules_of (lint "let connect n = Array.init n (fun _ -> Spsc.create ~capacity:8)\n"));
  rule_list "outside lib/ not in scope" []
    (rules_of (lint ~path:"bench/layers/main.ml" "let hook = ref None\n"));
  rule_list "channel waiver" []
    (rules_of
       (lint
          "(* lint: shared-state-ok test harness fixture, single consumer *)\n\
           let ring = Spsc.create ~capacity:4\n"));
  rule_list "waiver" []
    (rules_of (lint "(* lint: shared-state-ok guarded by the pool's init barrier *)\nlet hook = ref None\n"))

(* ------------------------------------------------------------------- R6 *)

let test_r6_banned () =
  rule_list "Obj.magic flagged" [ "R6" ] (rules_of (lint "let f x = Obj.magic x\n"));
  rule_list "Random.self_init flagged" [ "R6" ]
    (rules_of (lint "let seed () = Random.self_init ()\n"));
  rule_list "physical equality flagged" [ "R6" ] (rules_of (lint "let f a b = a == b\n"));
  rule_list "physical inequality flagged" [ "R6" ] (rules_of (lint "let f a b = a != b\n"));
  rule_list "structural equality fine" [] (rules_of (lint "let f a b = a = b\n"));
  rule_list "waiver" []
    (rules_of (lint "let f a b = a == b (* lint: banned-ok interned sentinel compare *)\n"))

(* ------------------------------------------------------------------- R7 *)

let test_r7_guarded_prof_record () =
  rule_list "unguarded record flagged" [ "R7" ]
    (rules_of (lint "let f t0 t1 = Prof.record Task ~label:\"x\" ~t0 ~t1 ~a:0 ~b:0 ~words:0.\n"));
  rule_list "record_gc flagged too" [ "R7" ]
    (rules_of (lint "let f () = Prof.record_gc ~label:\"start\"\n"));
  rule_list "qualified record flagged" [ "R7" ]
    (rules_of (lint "let f () = Aspipe_prof.Prof.record_gc ~label:\"start\"\n"));
  rule_list "if Prof.enabled guard passes" []
    (rules_of
       (lint
          "let f t0 t1 =\n\
          \  if Prof.enabled () then Prof.record Task ~label:\"x\" ~t0 ~t1 ~a:0 ~b:0 ~words:0.\n"));
  rule_list "compound condition mentioning Prof.enabled passes" []
    (rules_of
       (lint
          "let f t0 t1 =\n\
          \  if t0 > 0.0 && Prof.enabled () then Prof.record Task ~label:\"x\" ~t0 ~t1 ~a:0 ~b:0 ~words:0.\n"));
  rule_list "when Prof.enabled match guard passes" []
    (rules_of
       (lint
          "let f probe =\n\
          \  match probe with\n\
          \  | Some t0 when Prof.enabled () -> Prof.record_gc ~label:\"end\"\n\
          \  | _ -> ()\n"));
  rule_list "record in the else branch stays flagged" [ "R7" ]
    (rules_of
       (lint
          "let f () = if Prof.enabled () then () else Prof.record_gc ~label:\"x\"\n"));
  rule_list "a Bus.active guard does not excuse a prof record" [ "R7" ]
    (rules_of
       (lint "let f bus = if Bus.active bus then Prof.record_gc ~label:\"x\"\n"));
  rule_list "lib/prof/ itself is exempt" []
    (rules_of (lint ~path:"lib/prof/prof.ml" "let f () = Prof.record_gc ~label:\"x\"\n"));
  rule_list "outside lib/ not in scope" []
    (rules_of (lint ~path:"bin/aspipe_cli.ml" "let f () = Prof.record_gc ~label:\"x\"\n"));
  rule_list "waiver" []
    (rules_of
       (lint
          "let f () =\n\
          \  (* lint: unguarded-prof-ok exercising the recorder itself *)\n\
          \  Prof.record_gc ~label:\"x\"\n"))

(* --------------------------------------------------- typed pass fixtures *)

(* Typed fixtures typecheck against the stdlib only; a local [Spsc] /
   [Common] stub stands in for the real modules because the typed pass
   matches resolved-path *suffixes*. *)
let typed ?(path = "lib/demo/demo.ml") source =
  match Typed_load.fixture ~path source with
  | Error msg -> Alcotest.failf "fixture does not typecheck:\n%s" msg
  | Ok u ->
      let waivers = Waivers.scan source in
      Typed_check.run [ { Typed_check.unit_ = u; waivers } ]

let spsc_stub =
  "module Spsc = struct\n\
  \  type 'a t = { mutable buf : 'a list }\n\
  \  let create _n : 'a t = { buf = [] }\n\
  \  let push (t : 'a t) x = t.buf <- x :: t.buf\n\
  \  let pop (t : 'a t) = match t.buf with [] -> None | x :: tl -> t.buf <- tl; Some x\n\
  \  let close_push (_ : 'a t) = ()\n\
   end\n"

let common_stub = "module Common = struct let par_map f xs = List.map f xs end\n"

(* ------------------------------------------------------------------- R8 *)

let test_r8_global_escape () =
  let src =
    "let table : (int, int) Hashtbl.t = Hashtbl.create 8\n\
     let record k v = Hashtbl.replace table k v\n\
     let worker () = Domain.spawn (fun () -> record 1 2)\n"
  in
  rule_list "written global reachable from a spawn" [ "R8" ] (rules_of (typed src));
  let unwritten =
    "let table : (int, int) Hashtbl.t = Hashtbl.create 8\n\
     let look k = Hashtbl.find_opt table k\n\
     let worker () = Domain.spawn (fun () -> look 1)\n"
  in
  rule_list "read-only location passes" [] (rules_of (typed unwritten));
  let unreached =
    "let table : (int, int) Hashtbl.t = Hashtbl.create 8\n\
     let record k v = Hashtbl.replace table k v\n\
     let worker () = Domain.spawn (fun () -> 1 + 2)\n\
     let log () = record 1 2\n"
  in
  rule_list "written but not spawn-reachable passes" [] (rules_of (typed unreached));
  let atomic =
    "let counter = Atomic.make 0\n\
     let bump () = Atomic.incr counter\n\
     let worker () = Domain.spawn (fun () -> bump ())\n"
  in
  rule_list "Atomic is sanctioned" [] (rules_of (typed atomic));
  let waived =
    "(* lint: domain-shared-ok single writer, joined before reads *)\n\
     let table : (int, int) Hashtbl.t = Hashtbl.create 8\n\
     let record k v = Hashtbl.replace table k v\n\
     let worker () = Domain.spawn (fun () -> record 1 2)\n"
  in
  rule_list "waiver at the location" [] (rules_of (typed waived));
  let r5_waiver =
    "(* lint: shared-state-ok guarded by the run barrier *)\n\
     let table : (int, int) Hashtbl.t = Hashtbl.create 8\n\
     let record k v = Hashtbl.replace table k v\n\
     let worker () = Domain.spawn (fun () -> record 1 2)\n"
  in
  rule_list "an R5 waiver covers the same location" [] (rules_of (typed r5_waiver))

let test_r8_local_capture () =
  let smuggled =
    "let leak () =\n\
    \  let c = ref 0 in\n\
    \  let d = Domain.spawn (fun () -> c := 1) in\n\
    \  Domain.join d;\n\
    \  !c\n"
  in
  rule_list "closure smuggles a ref into Domain.spawn" [ "R8" ]
    (rules_of (typed smuggled));
  let named_closure =
    "let leak () =\n\
    \  let c = ref 0 in\n\
    \  let worker () = c := 1 in\n\
    \  let d = Domain.spawn worker in\n\
    \  Domain.join d;\n\
    \  !c\n"
  in
  rule_list "spawned named closure is attributed to the spawn" [ "R8" ]
    (rules_of (typed named_closure));
  let replicated =
    "let leak () =\n\
    \  let c = ref 0 in\n\
    \  let ds = List.init 4 (fun _ -> Domain.spawn (fun () -> c := 1)) in\n\
    \  List.iter Domain.join ds\n"
  in
  rule_list "replicated spawn is multi-context by itself" [ "R8" ]
    (rules_of (typed replicated));
  let transferred =
    "let owned () =\n\
    \  let c = ref 0 in\n\
    \  let d = Domain.spawn (fun () -> c := 1; !c) in\n\
    \  Domain.join d\n"
  in
  rule_list "ownership transfer (touched only inside one spawn) passes" []
    (rules_of (typed transferred));
  let creator_only =
    "let fine () =\n\
    \  let c = ref 0 in\n\
    \  let d = Domain.spawn (fun () -> 41 + 1) in\n\
    \  c := 1;\n\
    \  Domain.join d + !c\n"
  in
  rule_list "creator-only mutable passes" [] (rules_of (typed creator_only));
  let waived =
    "let leak () =\n\
    \  (* lint: domain-shared-ok write happens before the join-ordered read *)\n\
    \  let c = ref 0 in\n\
    \  let d = Domain.spawn (fun () -> c := 1) in\n\
    \  Domain.join d;\n\
    \  !c\n"
  in
  rule_list "waiver above the local" [] (rules_of (typed waived))

(* ------------------------------------------------------------------- R9 *)

let test_r9_spsc_discipline () =
  let two_producers =
    spsc_stub
    ^ "let two () =\n\
      \  let r = Spsc.create 8 in\n\
      \  let d1 = Domain.spawn (fun () -> Spsc.push r 1) in\n\
      \  let d2 = Domain.spawn (fun () -> Spsc.push r 2) in\n\
      \  Domain.join d1; Domain.join d2;\n\
      \  Spsc.pop r\n"
  in
  rule_list "two producer spawns flagged" [ "R9" ] (rules_of (typed two_producers));
  let two_consumers =
    spsc_stub
    ^ "let two () =\n\
      \  let r = Spsc.create 8 in\n\
      \  let d1 = Domain.spawn (fun () -> Spsc.pop r) in\n\
      \  let d2 = Domain.spawn (fun () -> Spsc.pop r) in\n\
      \  Spsc.push r 1;\n\
      \  Domain.join d1; Domain.join d2\n"
  in
  rule_list "two consumer spawns flagged" [ "R9" ] (rules_of (typed two_consumers));
  let disciplined =
    spsc_stub
    ^ "let ok () =\n\
      \  let r = Spsc.create 8 in\n\
      \  let d = Domain.spawn (fun () -> Spsc.pop r) in\n\
      \  Spsc.push r 1;\n\
      \  Spsc.close_push r;\n\
      \  Domain.join d\n"
  in
  rule_list "one producer, one consumer passes" [] (rules_of (typed disciplined));
  let interprocedural =
    spsc_stub
    ^ "let feed_one q = Spsc.push q 1\n\
       let two () =\n\
      \  let r = Spsc.create 8 in\n\
      \  let d1 = Domain.spawn (fun () -> feed_one r) in\n\
      \  let d2 = Domain.spawn (fun () -> feed_one r) in\n\
      \  Domain.join d1; Domain.join d2;\n\
      \  Spsc.pop r\n"
  in
  rule_list "pushes through a helper are still producers" [ "R9" ]
    (rules_of (typed interprocedural));
  let replicated =
    spsc_stub
    ^ "let lanes () =\n\
      \  let r = Spsc.create 8 in\n\
      \  let ds = List.init 4 (fun _ -> Domain.spawn (fun () -> Spsc.push r 1)) in\n\
      \  List.iter Domain.join ds;\n\
      \  Spsc.pop r\n"
  in
  rule_list "replicated producer spawn flagged" [ "R9" ] (rules_of (typed replicated));
  let escaped =
    spsc_stub
    ^ "let stash () =\n\
      \  let r = Spsc.create 8 in\n\
      \  let d1 = Domain.spawn (fun () -> Spsc.push r 1) in\n\
      \  let d2 = Domain.spawn (fun () -> Spsc.push r 2) in\n\
      \  Domain.join d1; Domain.join d2;\n\
      \  [ r ]\n"
  in
  rule_list "an escaping ring is skipped (documented caveat)" []
    (rules_of (typed escaped));
  let waived =
    spsc_stub
    ^ "let two () =\n\
      \  (* lint: spsc-ok producers run in disjoint phases *)\n\
      \  let r = Spsc.create 8 in\n\
      \  let d1 = Domain.spawn (fun () -> Spsc.push r 1) in\n\
      \  let d2 = Domain.spawn (fun () -> Spsc.push r 2) in\n\
      \  Domain.join d1; Domain.join d2;\n\
      \  Spsc.pop r\n"
  in
  rule_list "waiver at the create site" [] (rules_of (typed waived))

(* ------------------------------------------------------------------ R10 *)

let test_r10_job_purity () =
  let registry =
    "let hits = ref 0\n\
     type entry = { id : string; run : quick:bool -> unit }\n\
     let all = [ { id = \"e1\"; run = (fun ~quick -> ignore quick; incr hits) } ]\n"
  in
  rule_list "impure registry job flagged" [ "R10" ]
    (rules_of (typed ~path:"lib/exp/registry.ml" registry));
  let registry_pure =
    "type entry = { id : string; run : quick:bool -> unit }\n\
     let all = [ { id = \"e1\"; run = (fun ~quick -> ignore quick) } ]\n"
  in
  rule_list "pure registry job passes" []
    (rules_of (typed ~path:"lib/exp/registry.ml" registry_pure));
  let transitive =
    common_stub
    ^ "let hits = ref 0\n\
       let bump () = incr hits\n\
       let jobs xs = Common.par_map (fun x -> bump (); x) xs\n"
  in
  rule_list "stage closure writing module state through a helper" [ "R10" ]
    (rules_of (typed transitive));
  let captured =
    common_stub
    ^ "let f xs =\n\
      \  let acc = ref 0 in\n\
      \  Common.par_map (fun x -> acc := !acc + x; x) xs\n"
  in
  rule_list "stage closure writing a captured local" [ "R10" ]
    (rules_of (typed captured));
  let atomic =
    common_stub
    ^ "let hits = Atomic.make 0\n\
       let f xs = Common.par_map (fun x -> Atomic.incr hits; x) xs\n"
  in
  rule_list "Atomic writes are sanctioned" [] (rules_of (typed atomic));
  let local_inside =
    common_stub
    ^ "let f xs = Common.par_map (fun x -> let c = ref x in incr c; !c) xs\n"
  in
  rule_list "a local created inside the closure passes" []
    (rules_of (typed local_inside));
  let out_of_scope =
    common_stub
    ^ "let hits = ref 0\n\
       let f xs = Common.par_map (fun x -> incr hits; x) xs\n"
  in
  rule_list "lib/skel is the backend's own code, not in scope" []
    (rules_of (typed ~path:"lib/skel/demo.ml" out_of_scope));
  let waived =
    common_stub
    ^ "let hits = ref 0\n\
       let f xs =\n\
      \  (* lint: impure-job-ok counter is debug-only and jobs-invariant *)\n\
      \  Common.par_map (fun x -> incr hits; x) xs\n"
  in
  rule_list "waiver at the call site" [] (rules_of (typed waived))

(* ------------------------------------------- parsing, severities, driver *)

let test_syntax_error_is_a_finding () =
  match lint "let let let\n" with
  | [ f ] ->
      Alcotest.(check string) "rule id" "syntax" f.Finding.rule;
      Alcotest.(check bool) "error severity" true (f.Finding.severity = Finding.Error)
  | other -> Alcotest.failf "expected one syntax finding, got %d" (List.length other)

let test_mli_parses_as_interface () =
  rule_list "interfaces lint clean" []
    (rules_of (lint ~path:"lib/demo/demo.mli" "val f : int -> int\n"))

let test_severity_overrides () =
  let src = "let render h = Hashtbl.iter (fun k v -> ignore (k, v)) h\n" in
  let with_sev severities =
    Driver.check_source { Driver.default with severities } ~path:"lib/demo/demo.ml" src
  in
  (match with_sev [ ("R2", Some Finding.Warning) ] with
  | [ f ] -> Alcotest.(check bool) "downgraded" true (f.Finding.severity = Finding.Warning)
  | other -> Alcotest.failf "expected one finding, got %d" (List.length other));
  rule_list "off" [] (rules_of (with_sev [ ("R2", None) ]));
  let only_r1 =
    Driver.check_source { Driver.default with rules = Some [ "R1" ] } ~path:"lib/demo/demo.ml" src
  in
  rule_list "rule selection drops others" [] (rules_of only_r1)

let test_rule_catalogue_consistent () =
  Alcotest.(check (list string)) "ids are R1..R10 + W1, W2"
    [ "R1"; "R2"; "R3"; "R4"; "R5"; "R6"; "R7"; "R8"; "R9"; "R10"; "W1"; "W2" ]
    Rules.ids;
  let slugs = List.map (fun r -> r.Rules.slug) Rules.all in
  Alcotest.(check (list string)) "slugs are distinct" (List.sort_uniq compare slugs)
    (List.sort compare slugs);
  Alcotest.(check int) "catalogue version bumped for W2" 3 Rules.catalogue_version;
  Alcotest.(check (list string)) "typed ids" [ "R8"; "R9"; "R10"; "W2" ] Rules.typed_ids

(* ------------------------------------------------- W1, exit codes, JSON *)

(* A scratch tree on disk: Driver.scan is the only entry point that runs
   the W1 pass, so these tests write a real (tiny) root. *)
let with_scratch_tree files f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "aspipe_lint_test_%d" (Unix.getpid ()))
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists dir then rm dir;
  List.iter
    (fun (rel, contents) ->
      let abs = Filename.concat dir rel in
      let rec mkdirs d =
        if not (Sys.file_exists d) then begin
          mkdirs (Filename.dirname d);
          Sys.mkdir d 0o755
        end
      in
      mkdirs (Filename.dirname abs);
      Out_channel.with_open_bin abs (fun oc -> Out_channel.output_string oc contents))
    files;
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

let scratch_opts root = { Driver.default with root; roots = [ "lib" ] }

let test_w1_unused_waiver () =
  with_scratch_tree
    [ ("lib/x.ml", "(* lint: wall-clock-ok stale justification *)\nlet f x = x\n") ]
    (fun root ->
      let report = Driver.scan (scratch_opts root) in
      rule_list "stale waiver flagged" [ "W1" ] (rules_of report.Driver.findings));
  with_scratch_tree
    [ ("lib/x.ml", "(* lint: not-a-real-slug whatever *)\nlet f x = x\n") ]
    (fun root ->
      let report = Driver.scan (scratch_opts root) in
      match report.Driver.findings with
      | [ f ] ->
          Alcotest.(check string) "unknown slug is W1" "W1" f.Finding.rule;
          let contains_sub hay needle =
            let nh = String.length hay and nn = String.length needle in
            let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool) "message names the slug" true
            (contains_sub f.Finding.message "not-a-real-slug")
      | other -> Alcotest.failf "expected one W1 finding, got %d" (List.length other));
  with_scratch_tree
    [ ("lib/x.ml", "(* lint: spsc-ok phase-disjoint producers *)\nlet f x = x\n") ]
    (fun root ->
      let report = Driver.scan (scratch_opts root) in
      rule_list "typed-rule waiver survives a syntactic-only scan" []
        (rules_of report.Driver.findings));
  with_scratch_tree
    [
      ( "lib/x.ml",
        "let elapsed () = Unix.gettimeofday () (* lint: wall-clock-ok measures a real solve *)\n"
      );
    ]
    (fun root ->
      let report = Driver.scan (scratch_opts root) in
      rule_list "a firing waiver is not unused" [] (rules_of report.Driver.findings))

(* ------------------------------------------------------ W2 unused-export *)

(* W2 fixtures: lib/demo/a.mli exports [used] and [unused]; every other
   unit names them through a local [module A = struct ... end], which
   stands in for the real unit because W2 keys mentions on path suffixes. *)
let a_mli ?(waiver = "") () =
  Printf.sprintf "val used : int -> int\nval unused : int -> int%s\n" waiver

let a_ml = "let used x = x + 1\nlet unused x = used x\n"
let a_stub = "module A = struct let used x = x let unused x = x end\n"

let interface_of ?(path = "lib/demo/a.mli") source =
  match Typed_load.interface_fixture ~path source with
  | Error msg -> Alcotest.failf "interface fixture does not typecheck:\n%s" msg
  | Ok i -> i

let unit_of path source =
  match Typed_load.fixture ~path source with
  | Error msg -> Alcotest.failf "fixture does not typecheck:\n%s" msg
  | Ok u -> u

let w2_lines ?waiver units =
  let source = a_mli ?waiver () in
  let intf = interface_of source in
  Typed_check.unused_exports [ (intf, Waivers.scan source) ]
    (unit_of "lib/demo/a.ml" a_ml :: List.map (fun (path, src) -> unit_of path src) units)
  |> List.map (fun f -> (f.Finding.rule, f.Finding.line))

let test_w2_unused_export () =
  let lines = Alcotest.(check (list (pair string int))) in
  let uses_used = ("lib/demo/b.ml", a_stub ^ "let f = A.used 1\n") in
  lines "named only inside its own module" [ ("W2", 1); ("W2", 2) ] (w2_lines []);
  lines "one export used from lib/" [ ("W2", 2) ] (w2_lines [ uses_used ]);
  List.iter
    (fun dir ->
      lines (dir ^ " counts as a user") []
        (w2_lines [ uses_used; (dir ^ "/main.ml", a_stub ^ "let g = A.unused 2\n") ]))
    [ "bin"; "bench/layers"; "examples" ];
  lines "test/ does not count" [ ("W2", 2) ]
    (w2_lines [ uses_used; ("test/test_a.ml", a_stub ^ "let g = A.unused 2\n") ]);
  lines "a module alias resolves" [ ("W2", 1) ]
    (w2_lines [ ("lib/demo/c.ml", a_stub ^ "module X = A\nlet g = X.unused 2\n") ]);
  lines "a reasoned waiver suppresses" [ ("W2", 1) ]
    (w2_lines ~waiver:" (* lint: unused-export-ok public API of the demo *)" []);
  lines "a bare waiver does not" [ ("W2", 1); ("W2", 2) ]
    (w2_lines ~waiver:" (* lint: unused-export-ok *)" [])

(* The driver runs W2 only on a whole-tree typed scan, and W1 judges
   [unused-export-ok] waivers only when W2 ran. The typed units come from
   fixtures through [Driver.scan_with]; the sources sit in a scratch tree
   for the syntactic pass. *)
let test_w2_in_the_driver () =
  let mli = a_mli () in
  let waived_used =
    "val used : int -> int (* lint: unused-export-ok public API of the demo *)\n\
     val unused : int -> int\n"
  in
  let bin_src = a_stub ^ "let g = A.used 1\n" and bench_src = "let b = 0\n" in
  let files mli =
    [ ("lib/demo/a.mli", mli); ("lib/demo/a.ml", a_ml); ("bin/main.ml", bin_src);
      ("bench/b.ml", bench_src) ]
  in
  let load mli ~with_bin _roots =
    Ok
      {
        Typed_load.units =
          [ unit_of "lib/demo/a.ml" a_ml; unit_of "bench/b.ml" bench_src ]
          @ (if with_bin then [ unit_of "bin/main.ml" bin_src ] else []);
        interfaces = [ interface_of mli ];
        errors = [];
      }
  in
  let scan ?(roots = Aspipe_lint.Config.scan_roots) ?(with_bin = true) mli root =
    let opts = { Driver.default with root; roots; typed = true } in
    List.map
      (fun f -> (f.Finding.rule, f.Finding.file, f.Finding.line))
      (Driver.scan_with ~load:(load mli ~with_bin) opts).Driver.findings
  in
  let found = Alcotest.(check (list (triple string string int))) in
  with_scratch_tree (files mli) (fun root ->
      found "whole tree: the unused export" [ ("W2", "lib/demo/a.mli", 2) ] (scan mli root);
      found "subset roots: W2 stays silent" [] (scan ~roots:[ "lib" ] mli root);
      match scan ~with_bin:false mli root with
      | [ ("internal", _, _) ] -> ()
      | other -> Alcotest.failf "a missing user cmt must stop W2, got %d findings" (List.length other));
  with_scratch_tree (files waived_used) (fun root ->
      found "W1 flags a waiver on a used export"
        [ ("W1", "lib/demo/a.mli", 1); ("W2", "lib/demo/a.mli", 2) ]
        (scan waived_used root);
      found "no W1 when W2 did not run" [] (scan ~roots:[ "lib" ] waived_used root);
      match scan ~with_bin:false waived_used root with
      | [ ("internal", _, _) ] -> ()
      | other ->
          Alcotest.failf "a W2 stopped by a missing cmt judges no waiver, got %s"
            (String.concat ", " (List.map (fun (rule, _, _) -> rule) other)))

let mk_report findings =
  { Driver.files_scanned = 1; typed_ran = false; typed_units = 0; findings }

let finding ?(rule = "R1") ?(severity = Finding.Error) () =
  { Finding.rule; severity; file = "lib/x.ml"; line = 3; col = 1; message = "m" }

let test_exit_codes () =
  Alcotest.(check int) "clean tree exits 0" 0 (Driver.exit_code (mk_report []));
  Alcotest.(check int) "error findings exit 1" 1
    (Driver.exit_code (mk_report [ finding () ]));
  Alcotest.(check int) "warnings alone exit 0" 0
    (Driver.exit_code (mk_report [ finding ~severity:Finding.Warning () ]));
  Alcotest.(check int) "syntax failure exits 2" 2
    (Driver.exit_code (mk_report [ finding ~rule:"syntax" () ]));
  Alcotest.(check int) "internal failure exits 2" 2
    (Driver.exit_code (mk_report [ finding ~rule:"internal" (); finding () ]));
  with_scratch_tree
    [ ("lib/x.ml", "let f x = x in\n") ]
    (fun root ->
      let report = Driver.scan (scratch_opts root) in
      Alcotest.(check int) "unparseable source exits 2 end-to-end" 2
        (Driver.exit_code report))

let test_json_report_shape () =
  let report =
    mk_report [ finding (); finding ~rule:"R2" ~severity:Finding.Warning () ]
  in
  let rendered = Driver.render_json Driver.default report in
  match Json.of_string rendered with
  | Error e -> Alcotest.failf "report does not parse back: %s" e
  | Ok j ->
      Alcotest.(check bool) "catalogue_version present and current" true
        (Json.member "catalogue_version" j = Some (Json.Int Rules.catalogue_version));
      let findings =
        match Json.member "findings" j with Some (Json.List l) -> l | _ -> []
      in
      let severities =
        List.filter_map
          (fun f ->
            match Json.member "severity" f with
            | Some (Json.String s) -> Some s
            | _ -> None)
          findings
      in
      Alcotest.(check (list string)) "every finding carries its severity"
        [ "error"; "warning" ] severities

(* ----------------------------------------------------------------- SARIF *)

let sarif_roundtrip =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 0 8)
        (let* rule = oneofl Rules.ids in
         let* severity = bool in
         let* file = string_size ~gen:(char_range 'a' 'z') (int_range 1 12) in
         let* line = int_range 1 5000 in
         let* col = int_range 0 200 in
         let* message = string_printable in
         return
           {
             Finding.rule;
             severity = (if severity then Finding.Error else Finding.Warning);
             file = "lib/" ^ file ^ ".ml";
             line;
             col;
             message;
           }))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~name:"SARIF round-trips through Aspipe_obs.Json"
       gen
       (fun findings ->
         match Json.of_string (Sarif.render findings) with
         | Error e -> QCheck2.Test.fail_reportf "SARIF does not parse back: %s" e
         | Ok j ->
             if j <> Sarif.of_findings findings then
               QCheck2.Test.fail_reportf "parsed SARIF differs from the source value"
             else true))

let test_sarif_shape () =
  let rendered = Sarif.render [ finding () ] in
  match Json.of_string rendered with
  | Error e -> Alcotest.failf "unparseable SARIF: %s" e
  | Ok j -> (
      Alcotest.(check bool) "sarif version" true
        (Json.member "version" j = Some (Json.String "2.1.0"));
      match Json.member "runs" j with
      | Some (Json.List [ run ]) -> (
          let driver =
            Option.bind (Json.member "tool" run) (Json.member "driver")
          in
          (match Option.bind driver (Json.member "rules") with
          | Some (Json.List rules) ->
              Alcotest.(check int) "whole catalogue exported"
                (List.length Rules.all) (List.length rules)
          | _ -> Alcotest.fail "missing tool.driver.rules");
          match Json.member "results" run with
          | Some (Json.List [ result ]) ->
              Alcotest.(check bool) "ruleId" true
                (Json.member "ruleId" result = Some (Json.String "R1"))
          | _ -> Alcotest.fail "expected one result")
      | _ -> Alcotest.fail "expected one run")

(* ------------------------------------------------------------ self-check *)

(* The repo root: walk up from cwd past _build (tests run in
   _build/default/test) to the first directory holding dune-project and
   the real source tree. *)
let repo_root () =
  let inside_build dir =
    let rec has = function
      | "/" | "." -> false
      | d -> Filename.basename d = "_build" || has (Filename.dirname d)
    in
    has dir
  in
  let rec up dir =
    if
      (not (inside_build dir))
      && Sys.file_exists (Filename.concat dir "dune-project")
      && Sys.file_exists (Filename.concat dir "lib")
    then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent
  in
  up (Sys.getcwd ())

let test_tree_is_lint_clean () =
  match repo_root () with
  | None -> Alcotest.fail "could not locate the repository root from the test cwd"
  | Some root ->
      let report = Driver.scan { Driver.default with root } in
      Alcotest.(check bool) "scanned a real tree" true (report.Driver.files_scanned > 100);
      if report.Driver.findings <> [] then
        Alcotest.failf "tree has lint findings:\n%s" (Driver.render_text report)

(* The typed pass over the shipped tree itself: the .cmt files for the
   libraries this test links against live in <root>/_build/default, so a
   normal `dune runtest` exercises the interprocedural analyses on real
   code. Skipped (not failed) when no cmts are present, e.g. after a
   clean. *)
let test_typed_self_check () =
  match repo_root () with
  | None -> Alcotest.fail "could not locate the repository root from the test cwd"
  | Some root ->
      let report = Driver.scan { Driver.default with root; typed = true } in
      if report.Driver.typed_units = 0 then
        Alcotest.skip ()
      else begin
        Alcotest.(check bool) "typed pass ran" true report.Driver.typed_ran;
        Alcotest.(check bool) "analysed a real library" true
          (report.Driver.typed_units > 20);
        if report.Driver.findings <> [] then
          Alcotest.failf "typed pass has findings on the shipped tree:\n%s"
            (Driver.render_text report)
      end

let () =
  Alcotest.run "aspipe_lint"
    [
      ( "rules",
        [
          Alcotest.test_case "R1 no-wall-clock" `Quick test_r1_wall_clock;
          Alcotest.test_case "R2 deterministic-iteration" `Quick test_r2_unordered_iteration;
          Alcotest.test_case "R3 no-raw-print" `Quick test_r3_raw_print;
          Alcotest.test_case "R4 guarded-hot-emit" `Quick test_r4_guarded_emit;
          Alcotest.test_case "R5 domain-safety" `Quick test_r5_shared_state;
          Alcotest.test_case "R6 banned-construct" `Quick test_r6_banned;
          Alcotest.test_case "R7 guarded-prof-record" `Quick test_r7_guarded_prof_record;
        ] );
      ( "typed rules",
        [
          Alcotest.test_case "R8 global escape" `Quick test_r8_global_escape;
          Alcotest.test_case "R8 local capture" `Quick test_r8_local_capture;
          Alcotest.test_case "R9 SPSC discipline" `Quick test_r9_spsc_discipline;
          Alcotest.test_case "R10 job purity" `Quick test_r10_job_purity;
          Alcotest.test_case "W2 unused export" `Quick test_w2_unused_export;
        ] );
      ( "driver",
        [
          Alcotest.test_case "syntax errors surface" `Quick test_syntax_error_is_a_finding;
          Alcotest.test_case "mli parses" `Quick test_mli_parses_as_interface;
          Alcotest.test_case "severity overrides" `Quick test_severity_overrides;
          Alcotest.test_case "catalogue consistent" `Quick test_rule_catalogue_consistent;
          Alcotest.test_case "W1 unused waivers" `Quick test_w1_unused_waiver;
          Alcotest.test_case "W2 in the driver" `Quick test_w2_in_the_driver;
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
          Alcotest.test_case "JSON report shape" `Quick test_json_report_shape;
        ] );
      ( "sarif",
        [
          Alcotest.test_case "document shape" `Quick test_sarif_shape;
          sarif_roundtrip;
        ] );
      ( "self-check",
        [
          Alcotest.test_case "shipped tree is lint-clean" `Quick test_tree_is_lint_clean;
          Alcotest.test_case "typed pass over the shipped tree" `Quick test_typed_self_check;
        ] );
    ]
