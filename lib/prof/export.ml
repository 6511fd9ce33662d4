(* Profile -> Chrome trace-event JSON, built with Aspipe_obs.Trace_event's
   encoder under a third process so a runner profile and a virtual-time
   trace can be concatenated for side-by-side viewing: one thread per
   domain timeline, "X" slices for duration spans, "C" counter tracks
   (name-keyed per domain) for GC and queue-depth samples. *)

module Json = Aspipe_obs.Json
module Trace_event = Aspipe_obs.Trace_event

let runner_pid = 3
let us = Trace_event.us
let base = Trace_event.base ~pid:runner_pid
let metadata ~name ~tid ~key arg = Trace_event.metadata ~name ~pid:runner_pid ~tid ~key arg

let slice_cat (k : Prof.kind) =
  match k with
  | Prof.Cache_probe | Prof.Cache_store -> "cache"
  | Prof.Out_flush -> "out"
  | _ -> "runner"

let span_events ~tid ~domain (s : Prof.span) =
  let name = if s.Prof.label = "" then Prof.kind_name s.Prof.kind else s.Prof.label in
  match s.Prof.kind with
  | Prof.Task | Prof.Await_wait | Prof.Worker_idle | Prof.Cache_probe | Prof.Cache_store
  | Prof.Out_flush ->
      [
        base ~name ~cat:(slice_cat s.Prof.kind) ~ph:"X" ~ts:s.Prof.t0 ~tid
          [
            ("dur", us (s.Prof.t1 -. s.Prof.t0));
            ( "args",
              Json.Obj
                [
                  ("kind", Json.String (Prof.kind_name s.Prof.kind));
                  ("a", Json.Int s.Prof.a);
                  ("b", Json.Int s.Prof.b);
                  ("minor_words", Json.Float s.Prof.words);
                ] );
          ];
      ]
  | Prof.Steal -> [] (* nothing records it; see Prof.kind *)
  | Prof.Gc_sample ->
      [
        base ~name:("gc " ^ domain) ~cat:"gc" ~ph:"C" ~ts:s.Prof.t0 ~tid
          [
            ( "args",
              Json.Obj
                [
                  ("minor collections", Json.Int s.Prof.a);
                  ("minor Mwords", Json.Float (s.Prof.words /. 1e6));
                ] );
          ];
      ]
  | Prof.Queue_sample ->
      [
        base ~name:("queue " ^ domain) ~cat:"runner" ~ph:"C" ~ts:s.Prof.t0 ~tid
          [ ("args", Json.Obj [ ("depth", Json.Int s.Prof.a) ]) ];
      ]

let to_json (p : Prof.profile) =
  let process =
    [
      metadata ~name:"process_name" ~tid:0 ~key:"name" (Json.String "runner");
      metadata ~name:"process_sort_index" ~tid:0 ~key:"sort_index" (Json.Int runner_pid);
    ]
  in
  let threads =
    List.concat
      (List.mapi
         (fun tid (tl : Prof.timeline) ->
           [
             metadata ~name:"thread_name" ~tid ~key:"name" (Json.String tl.Prof.domain);
             metadata ~name:"thread_sort_index" ~tid ~key:"sort_index" (Json.Int tid);
           ])
         p.Prof.timelines)
  in
  let events =
    List.concat
      (List.mapi
         (fun tid (tl : Prof.timeline) ->
           List.concat_map (span_events ~tid ~domain:tl.Prof.domain) tl.Prof.spans)
         p.Prof.timelines)
  in
  let spans =
    List.fold_left (fun acc tl -> acc + List.length tl.Prof.spans) 0 p.Prof.timelines
  in
  Trace_event.document
    ~other:
      [
        ("source", Json.String "aspipe campaign --profile");
        ("spans", Json.Int spans);
        ("origin_seconds", Json.Float p.Prof.origin);
      ]
    (process @ threads @ events)

let to_string p = Json.to_string (to_json p)
(* layout: out of line (DESIGN "Code layout") *)
let[@inline never] write p ~path = Trace_event.save ~path (to_string p)
