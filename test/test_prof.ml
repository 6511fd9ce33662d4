(* Tests for Aspipe_prof: the zero-cost-when-off contract, span ordering
   and nesting recovery, exclusive-time accounting, the Out capture probe,
   and both exporters (contention report, Perfetto JSON).

   Prof state is global to the process; every test that enables the
   profiler disables it in a [Fun.protect] finally so the suite's order
   does not matter. *)

module Prof = Aspipe_prof.Prof
module Report = Aspipe_prof.Report
module Export = Aspipe_prof.Export
module Campaign = Aspipe_runner.Campaign
module Json = Aspipe_obs.Json
module Out = Aspipe_util.Out

let with_profiler f =
  Prof.enable ();
  Fun.protect ~finally:Prof.disable f

let span ?(kind = Prof.Task) ?(label = "") ?(a = 0) ?(b = 0) ?(words = 0.0) t0 t1 =
  { Prof.kind; label; t0; t1; a; b; words }

let close_to = Alcotest.float 1e-9

(* Every per-domain buffer joins the registry [Prof.collect] reads, so the
   number of timelines it returns counts the buffers created since the
   last [Prof.enable]. *)
let buffers () = List.length (Prof.collect ()).Prof.timelines

(* ------------------------------------------------------- off is free *)

let test_off_allocates_nothing () =
  Prof.disable ();
  let before = buffers () in
  Prof.record Prof.Task ~label:"ignored" ~t0:0.0 ~t1:1.0 ~a:0 ~b:0 ~words:0.0;
  Prof.record_gc ~label:"ignored";
  Prof.set_domain ~order:7 "ignored";
  Alcotest.(check int) "no buffer created by a disabled record" before
    (buffers ())

let test_off_campaign_allocates_nothing () =
  Prof.disable ();
  let before = buffers () in
  ignore (Campaign.run ~jobs:4 ~oversubscribe:true ~only:[ "E1" ] ~quick:true ());
  Alcotest.(check int) "a profiler-off campaign creates zero span buffers" before
    (buffers ())

(* The observability guarantee: turning the profiler on cannot change the
   campaign's bytes, jobs 1 or jobs 4. *)
let test_profiled_output_byte_identical () =
  Prof.disable ();
  let plain = Campaign.run ~jobs:1 ~only:[ "E1"; "E18" ] ~quick:true () in
  let profiled =
    with_profiler (fun () ->
        Campaign.run ~jobs:4 ~oversubscribe:true ~only:[ "E1"; "E18" ] ~quick:true ())
  in
  List.iter2
    (fun a b ->
      Alcotest.(check string)
        (Printf.sprintf "%s byte-identical with the profiler on" a.Campaign.id)
        a.Campaign.output b.Campaign.output)
    plain.Campaign.outcomes profiled.Campaign.outcomes

(* --------------------------------------------- recording and ordering *)

let test_enable_resets_previous_spans () =
  with_profiler (fun () ->
      Prof.record Prof.Task ~label:"old" ~t0:1.0 ~t1:2.0 ~a:0 ~b:0 ~words:0.0);
  with_profiler (fun () ->
      let spans = List.concat_map (fun tl -> tl.Prof.spans) (Prof.collect ()).Prof.timelines in
      Alcotest.(check int) "enable drops spans from the previous session" 0
        (List.length spans))

let test_span_sorting_restores_nesting () =
  let p =
    with_profiler (fun () ->
        Prof.set_domain ~order:0 "main";
        let base = Prof.now () in
        (* Appended in END order, as the instrumentation does: the child
           task finishes (and records) before its enclosing parent. *)
        Prof.record Prof.Task ~label:"child" ~t0:(base +. 0.010) ~t1:(base +. 0.020)
          ~a:0 ~b:0 ~words:0.0;
        Prof.record Prof.Task ~label:"parent" ~t0:base ~t1:(base +. 0.050) ~a:0 ~b:0
          ~words:0.0;
        (* Same t0 as parent, shorter: ties break longest-first. *)
        Prof.record Prof.Task ~label:"twin" ~t0:base ~t1:(base +. 0.030) ~a:0 ~b:0
          ~words:0.0;
        Prof.collect ())
  in
  match p.Prof.timelines with
  | [ tl ] ->
      Alcotest.(check string) "timeline named" "main" tl.Prof.domain;
      Alcotest.(check int) "display order" 0 tl.Prof.order;
      Alcotest.(check (list string)) "parents before children, longest first on ties"
        [ "parent"; "twin"; "child" ]
        (List.map (fun s -> s.Prof.label) tl.Prof.spans);
      (match tl.Prof.spans with
      | first :: _ -> Alcotest.check close_to "rebased to origin" 0.0 first.Prof.t0
      | [] -> Alcotest.fail "no spans collected")
  | other -> Alcotest.failf "expected one timeline, got %d" (List.length other)

let test_task_exclusives () =
  (* Hand-built, already-sorted timeline:
       parent [0,10] > child [2,5] > grandchild [3,4]; await [6,8] under
       parent. Direct children only: the grandchild is charged to the
       child, never double-charged to the parent. *)
  let tl =
    {
      Prof.order = 0;
      domain = "main";
      spans =
        [
          span ~label:"parent" 0.0 10.0;
          span ~label:"child" 2.0 5.0;
          span ~label:"grandchild" 3.0 4.0;
          span ~kind:Prof.Await_wait 6.0 8.0;
        ];
    }
  in
  let excl = List.map (fun (s, e) -> (s.Prof.label, e)) (Report.task_exclusives tl) in
  let get label = List.assoc label excl in
  Alcotest.(check int) "one entry per task" 3 (List.length excl);
  Alcotest.check close_to "parent = 10 - child 3 - await 2" 5.0 (get "parent");
  Alcotest.check close_to "child = 3 - grandchild 1" 2.0 (get "child");
  Alcotest.check close_to "grandchild keeps its full duration" 1.0 (get "grandchild")

(* ----------------------------------------------------- the Out probe *)

let test_out_probe_records_flushes () =
  let p =
    with_profiler (fun () ->
        let bytes = Out.capture (fun () -> Out.print_string "hello out") in
        Alcotest.(check string) "capture still returns the bytes" "hello out" bytes;
        Prof.collect ())
  in
  let flushes =
    List.concat_map
      (fun tl ->
        List.filter (fun s -> s.Prof.kind = Prof.Out_flush) tl.Prof.spans)
      p.Prof.timelines
  in
  Alcotest.(check bool) "at least one flush recorded" true (flushes <> []);
  Alcotest.(check int) "flush carries the byte count" 9
    (List.fold_left (fun acc s -> acc + s.Prof.a) 0 flushes)

let test_probe_cleared_on_disable () =
  with_profiler (fun () -> ());
  let before = buffers () in
  ignore (Out.capture (fun () -> Out.print_string "quiet"));
  Alcotest.(check int) "no recording after disable" before (buffers ())

(* ---------------------------------------- campaign profile, --jobs 4 *)

let test_campaign_profile_per_domain () =
  let p, report =
    with_profiler (fun () ->
        let report =
          Campaign.run ~jobs:4 ~oversubscribe:true ~only:[ "E1"; "E18"; "E20" ]
            ~quick:true ()
        in
        (Prof.collect (), report))
  in
  Alcotest.(check int) "campaign used 4 workers" 4 report.Campaign.workers;
  Alcotest.(check (list string)) "one timeline per domain, display order"
    [ "main"; "worker 0"; "worker 1"; "worker 2"; "worker 3" ]
    (List.map (fun tl -> tl.Prof.domain) p.Prof.timelines);
  List.iter
    (fun tl ->
      List.iter
        (fun s ->
          if not (s.Prof.t0 >= 0.0 && s.Prof.t1 >= s.Prof.t0) then
            Alcotest.failf "%s: span %s not well-formed (t0 %.9f t1 %.9f)" tl.Prof.domain
              (Prof.kind_name s.Prof.kind) s.Prof.t0 s.Prof.t1)
        tl.Prof.spans)
    p.Prof.timelines;
  let main_tasks =
    match p.Prof.timelines with
    | main :: _ -> List.filter (fun s -> s.Prof.kind = Prof.Task) main.Prof.spans
    | [] -> []
  in
  Alcotest.(check bool) "experiment task spans carry registry ids" true
    (List.exists (fun s -> s.Prof.label = "E1") main_tasks
    || List.exists
         (fun tl -> List.exists (fun s -> s.Prof.label = "E1") tl.Prof.spans)
         p.Prof.timelines)

(* ------------------------------------------------------------ exports *)

let synthetic_profile () =
  {
    Prof.origin = 123.0;
    timelines =
      [
        {
          Prof.order = 0;
          domain = "main";
          spans =
            [
              span ~label:"E1" ~a:2 ~words:1.5e6 0.0 0.4;
              span ~kind:Prof.Gc_sample ~a:10 ~b:1 ~words:2e6 0.1 0.1;
              span ~kind:Prof.Out_flush ~a:512 0.35 0.35;
            ];
        };
        {
          Prof.order = 1;
          domain = "worker 0";
          spans =
            [
              span ~label:"E2" 0.05 0.2;
              span ~kind:Prof.Worker_idle 0.2 0.4;
              span ~kind:Prof.Queue_sample ~a:2 0.1 0.1;
            ];
        };
      ];
  }

let string_contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
  scan 0

let test_report_render () =
  let text = Report.render (synthetic_profile ()) in
  List.iter
    (fun needle ->
      if not (string_contains text needle) then
        Alcotest.failf "report missing %S:\n%s" needle text)
    [
      "Wall-clock contention report";
      "main";
      "worker 0";
      "totals:";
      "top 2 tasks by exclusive seconds:";
      "E1";
    ];
  Alcotest.(check string) "deterministic" text (Report.render (synthetic_profile ()))

let test_perfetto_export_round_trips () =
  let text = Export.to_string (synthetic_profile ()) in
  match Json.of_string text with
  | Error e -> Alcotest.failf "export is not valid JSON (%s):\n%s" e text
  | Ok doc -> (
      (match Json.member "displayTimeUnit" doc with
      | Some (Json.String "ms") -> ()
      | _ -> Alcotest.fail "displayTimeUnit missing");
      match Json.member "traceEvents" doc with
      | Some (Json.List events) ->
          let phases =
            List.filter_map
              (fun e ->
                match Json.member "ph" e with Some (Json.String p) -> Some p | _ -> None)
              events
          in
          let count p = List.length (List.filter (( = ) p) phases) in
          Alcotest.(check int) "process + 2x2 thread metadata" 6 (count "M");
          Alcotest.(check int) "E1/E2 tasks + idle + out flush as slices" 4 (count "X");
          Alcotest.(check int) "gc + queue counter samples" 2 (count "C");
          let queue_args =
            List.filter_map
              (fun e ->
                match Json.member "name" e with
                | Some (Json.String "queue worker 0") -> Json.member "args" e
                | _ -> None)
              events
          in
          Alcotest.(check bool) "queue counter reports one depth" true
            (queue_args = [ Json.Obj [ ("depth", Json.Int 2) ] ]);
          List.iter
            (fun e ->
              match Json.member "pid" e with
              | Some (Json.Int pid) ->
                  Alcotest.(check int) "every event on the runner process"
                    Export.runner_pid pid
              | _ -> Alcotest.fail "event without pid")
            events
      | _ -> Alcotest.fail "traceEvents missing")

let test_export_write () =
  let path = Filename.temp_file "aspipe-prof" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Export.write (synthetic_profile ()) ~path;
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let body = really_input_string ic len in
      close_in ic;
      match Json.of_string body with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "written file is not valid JSON: %s" e)

let () =
  Alcotest.run "aspipe_prof"
    [
      ( "off",
        [
          Alcotest.test_case "record allocates nothing" `Quick test_off_allocates_nothing;
          Alcotest.test_case "campaign allocates nothing" `Slow
            test_off_campaign_allocates_nothing;
          Alcotest.test_case "output byte-identical when on" `Slow
            test_profiled_output_byte_identical;
        ] );
      ( "recording",
        [
          Alcotest.test_case "enable resets spans" `Quick test_enable_resets_previous_spans;
          Alcotest.test_case "sorting restores nesting" `Quick
            test_span_sorting_restores_nesting;
          Alcotest.test_case "task exclusives" `Quick test_task_exclusives;
          Alcotest.test_case "out probe" `Quick test_out_probe_records_flushes;
          Alcotest.test_case "probe cleared on disable" `Quick test_probe_cleared_on_disable;
        ] );
      ( "campaign",
        [ Alcotest.test_case "per-domain timelines, jobs 4" `Slow test_campaign_profile_per_domain ] );
      ( "export",
        [
          Alcotest.test_case "contention report" `Quick test_report_render;
          Alcotest.test_case "perfetto round-trip" `Quick test_perfetto_export_round_trips;
          Alcotest.test_case "write" `Quick test_export_write;
        ] );
    ]
