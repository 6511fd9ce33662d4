(* Tests for the discrete-event engine: priority queue, event loop, signals
   and rate-modulated servers. *)

module Pqueue = Aspipe_des.Pqueue
module Engine = Aspipe_des.Engine
module Signal = Aspipe_des.Signal
module Server = Aspipe_des.Server
module Rng = Aspipe_util.Rng

let check_float = Alcotest.(check (float 1e-9))

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --------------------------------------------------------------- Pqueue *)

(* The minimum live entry within [horizon], popped through the
   allocation-free [pop_min] and read back as an option. *)
let pop_if q ~horizon =
  if Pqueue.pop_min q ~horizon then Some (Pqueue.popped_key q, Pqueue.popped_value q) else None

let pop q = pop_if q ~horizon:infinity

let test_pqueue_ordering =
  qtest "pop yields keys in non-decreasing order"
    QCheck2.Gen.(list_size (int_range 0 300) (float_range 0.0 1000.0))
    (fun keys ->
      let q = Pqueue.create () in
      List.iteri (fun i k -> ignore (Pqueue.insert q k i)) keys;
      let rec drain acc =
        match pop q with Some (k, _) -> drain (k :: acc) | None -> List.rev acc
      in
      let popped = drain [] in
      popped = List.sort Float.compare keys)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  List.iter (fun v -> ignore (Pqueue.insert q 1.0 v)) [ 1; 2; 3; 4 ];
  let order =
    List.init 4 (fun _ -> match pop q with Some (_, v) -> v | None -> -1)
  in
  Alcotest.(check (list int)) "equal keys pop in insertion order" [ 1; 2; 3; 4 ] order

let test_pqueue_cancel () =
  let q = Pqueue.create () in
  let _a = Pqueue.insert q 1.0 "a" in
  let b = Pqueue.insert q 2.0 "b" in
  let _c = Pqueue.insert q 3.0 "c" in
  Pqueue.cancel b;
  Pqueue.cancel b (* idempotent *);
  let popped =
    List.init 2 (fun _ -> match pop q with Some (_, v) -> v | None -> "?")
  in
  Alcotest.(check (list string)) "cancelled entry skipped" [ "a"; "c" ] popped;
  Alcotest.(check bool) "empty after" true (pop q = None)

let test_pqueue_peek_skips_cancelled () =
  let q = Pqueue.create () in
  let a = Pqueue.insert q 1.0 "a" in
  let _b = Pqueue.insert q 2.0 "b" in
  Pqueue.cancel a;
  Alcotest.(check bool) "the cancelled root does not count within its horizon" true
    (pop_if q ~horizon:1.5 = None);
  Alcotest.(check bool) "the live entry pops next" true (pop q = Some (2.0, "b"))

let test_pqueue_empty () =
  let q : int Pqueue.t = Pqueue.create () in
  Alcotest.(check bool) "pop_min empty" false (Pqueue.pop_min q ~horizon:infinity)

let test_pqueue_pop_if_horizon () =
  let q = Pqueue.create () in
  ignore (Pqueue.insert q 2.0 "b");
  ignore (Pqueue.insert q 1.0 "a");
  ignore (Pqueue.insert q 3.0 "c");
  Alcotest.(check bool) "beyond horizon stays" true (pop_if q ~horizon:0.5 = None);
  Alcotest.(check bool) "at horizon pops" true (pop_if q ~horizon:1.0 = Some (1.0, "a"));
  Alcotest.(check bool) "next beyond" true (pop_if q ~horizon:1.5 = None);
  Alcotest.(check bool) "wide horizon pops" true (pop_if q ~horizon:10.0 = Some (2.0, "b"))

let test_pqueue_pop_min_readback () =
  let q = Pqueue.create () in
  ignore (Pqueue.insert q 4.0 "later");
  ignore (Pqueue.insert q 2.0 "sooner");
  Alcotest.(check bool) "pops" true (Pqueue.pop_min q ~horizon:infinity);
  Alcotest.(check (float 0.0)) "popped key" 2.0 (Pqueue.popped_key q);
  Alcotest.(check string) "popped value" "sooner" (Pqueue.popped_value q);
  Alcotest.(check bool) "pops again" true (Pqueue.pop_min q ~horizon:infinity);
  Alcotest.(check string) "second value" "later" (Pqueue.popped_value q);
  Alcotest.(check bool) "then empty" false (Pqueue.pop_min q ~horizon:infinity)

let test_pqueue_pop_if_drops_cancelled_beyond_horizon () =
  let q = Pqueue.create () in
  let h = Pqueue.insert q 5.0 "dead" in
  ignore (Pqueue.insert q 7.0 "live");
  Pqueue.cancel h;
  (* The cancelled root is physically removed even though both entries lie
     beyond the horizon. *)
  Alcotest.(check bool) "nothing within horizon" true (pop_if q ~horizon:1.0 = None);
  Alcotest.(check bool) "live entry pops" true (pop_if q ~horizon:10.0 = Some (7.0, "live"))

(* Model-based property: any interleaving of insert / remove-min / cancel
   agrees with a reference model — a list of live [(key, seq)] pairs where
   the minimum is by key then insertion order. Small integer keys force
   ties; cancel targets any handle ever issued, so cancelling entries that
   were already popped or cancelled is exercised too (idempotent no-op). *)

type pq_op = Pq_insert of int | Pq_remove_min | Pq_cancel of int | Pq_pop_if of int

let pq_op_gen =
  QCheck2.Gen.(
    frequency
      [
        (4, map (fun k -> Pq_insert k) (int_range 0 20));
        (3, return Pq_remove_min);
        (2, map (fun i -> Pq_cancel i) (int_range 0 10_000));
        (2, map (fun h -> Pq_pop_if h) (int_range 0 20));
      ])

let test_pqueue_matches_model =
  qtest ~count:150 "interleaved insert/remove-min/cancel matches reference model"
    QCheck2.Gen.(list_size (int_range 0 150) pq_op_gen)
    (fun ops ->
      let q = Pqueue.create () in
      let handles = ref [] (* every handle ever issued, newest first *) in
      let issued = ref 0 in
      let live = ref [] (* model: live (key, seq) entries *) in
      let seq = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | Pq_insert k ->
              let key = float_of_int k in
              let h = Pqueue.insert q key !seq in
              handles := (h, (key, !seq)) :: !handles;
              incr issued;
              live := (key, !seq) :: !live;
              incr seq;
              true
          | Pq_remove_min ->
              let expected =
                match List.sort compare !live with
                | [] -> None
                | ((k, s) as min) :: _ ->
                    live := List.filter (fun e -> e <> min) !live;
                    Some (k, s)
              in
              pop q = expected
          | Pq_cancel i ->
              if !issued = 0 then true
              else begin
                let h, target = List.nth !handles (i mod !issued) in
                Pqueue.cancel h;
                live := List.filter (fun e -> e <> target) !live;
                true
              end
          | Pq_pop_if h ->
              let horizon = float_of_int h in
              let expected =
                match List.sort compare !live with
                | ((k, s) as min) :: _ when k <= horizon ->
                    live := List.filter (fun e -> e <> min) !live;
                    Some (k, s)
                | _ -> None
              in
              pop_if q ~horizon = expected)
        ops
      && (* after the op sequence, draining pops the remaining model in order *)
      List.sort compare !live
      = (let rec drain acc =
           match pop q with Some e -> drain (e :: acc) | None -> List.rev acc
         in
         drain []))

(* --------------------------------------------------------------- Engine *)

let test_engine_order () =
  let engine = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule engine ~delay:3.0 (fun () -> log := "c" :: !log));
  ignore (Engine.schedule engine ~delay:1.0 (fun () -> log := "a" :: !log));
  ignore (Engine.schedule engine ~delay:2.0 (fun () -> log := "b" :: !log));
  Engine.run engine;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  check_float "clock at last event" 3.0 (Engine.now engine)

let test_engine_same_time_fifo () =
  let engine = Engine.create () in
  let log = ref [] in
  for i = 0 to 4 do
    ignore (Engine.schedule engine ~delay:1.0 (fun () -> log := i :: !log))
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "FIFO at same instant" [ 0; 1; 2; 3; 4 ] (List.rev !log)

let test_engine_invalid () =
  let engine = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: delay must be finite and non-negative") (fun () ->
      ignore (Engine.schedule engine ~delay:(-1.0) (fun () -> ())));
  Alcotest.check_raises "nan delay"
    (Invalid_argument "Engine.schedule: delay must be finite and non-negative") (fun () ->
      ignore (Engine.schedule engine ~delay:nan (fun () -> ())));
  ignore (Engine.schedule engine ~delay:1.0 (fun () -> ()));
  Engine.run engine;
  Alcotest.check_raises "past schedule_at"
    (Invalid_argument "Engine.schedule_at: time in the past") (fun () ->
      ignore (Engine.schedule_at engine ~time:0.5 (fun () -> ())))

let test_engine_cancel () =
  let engine = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule_cancellable engine ~delay:1.0 (fun () -> fired := true) in
  Engine.cancel h;
  Engine.run engine;
  Alcotest.(check bool) "cancelled event does not fire" false !fired

let test_engine_nested_scheduling () =
  let engine = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule engine ~delay:1.0 (fun () ->
         log := `First :: !log;
         ignore (Engine.schedule engine ~delay:0.5 (fun () -> log := `Nested :: !log))));
  Engine.run engine;
  Alcotest.(check int) "both events fired" 2 (List.length !log);
  check_float "clock at nested event" 1.5 (Engine.now engine)

let test_engine_run_until () =
  let engine = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule engine ~delay:1.0 (fun () -> incr fired));
  ignore (Engine.schedule engine ~delay:5.0 (fun () -> incr fired));
  Engine.run ~until:2.0 engine;
  Alcotest.(check int) "only the early event" 1 !fired;
  check_float "clock advanced to horizon" 2.0 (Engine.now engine);
  Alcotest.(check bool) "late event still pending" true (Engine.step engine);
  Alcotest.(check int) "fires when stepped" 2 !fired;
  Alcotest.(check bool) "then nothing is left" false (Engine.step engine)

let test_engine_periodic () =
  let engine = Engine.create () in
  let ticks = ref 0 in
  Engine.periodic engine ~every:1.0 (fun () ->
      incr ticks;
      !ticks < 5);
  Engine.run engine;
  Alcotest.(check int) "stops when callback says so" 5 !ticks;
  check_float "last tick time" 5.0 (Engine.now engine)

let test_engine_periodic_start () =
  let engine = Engine.create () in
  let times = ref [] in
  Engine.periodic engine ~start:0.0 ~every:2.0 (fun () ->
      times := Engine.now engine :: !times;
      List.length !times < 3);
  Engine.run engine;
  Alcotest.(check (list (float 1e-9))) "explicit start honoured" [ 0.0; 2.0; 4.0 ]
    (List.rev !times)

(* --------------------------------------------------------------- Signal *)

let test_signal_basics () =
  let s = Signal.create 1.0 in
  check_float "initial value" 1.0 (Signal.get s);
  let seen = ref [] in
  Signal.subscribe s (fun ~old_value ~new_value -> seen := (old_value, new_value) :: !seen);
  Signal.set s 0.5;
  Signal.set s 0.5 (* no-op *);
  Signal.set s 0.8;
  Alcotest.(check int) "two real changes" 2 (List.length !seen);
  Alcotest.(check (pair (float 0.0) (float 0.0))) "old/new pair" (0.5, 0.8) (List.hd !seen)

let test_signal_history () =
  let engine = Engine.create () in
  let s = Signal.create 1.0 in
  ignore (Engine.schedule engine ~delay:2.0 (fun () -> Signal.set s 0.25));
  let seen = ref [] in
  List.iter
    (fun time -> ignore (Engine.schedule_at engine ~time (fun () -> seen := Signal.get s :: !seen)))
    [ 1.0; 3.0 ];
  Engine.run engine;
  Alcotest.(check (list (float 0.0))) "before and after the change" [ 1.0; 0.25 ]
    (List.rev !seen)

(* --------------------------------------------------------------- Server *)

let make_server ?(rate = 10.0) () =
  let engine = Engine.create () in
  let signal = Signal.create rate in
  let server = Server.create engine ~rate:signal in
  (engine, signal, server)

let test_server_single_job_timing () =
  let engine, _, server = make_server ~rate:10.0 () in
  let finish = ref nan and completions = ref 0 in
  Server.submit server ~work:25.0 ~tag:0 ~on_start:ignore (fun _ ->
      finish := Engine.now engine;
      incr completions);
  Engine.run engine;
  check_float "work/rate seconds" 2.5 !finish;
  Alcotest.(check int) "completed count" 1 !completions

let test_server_fifo () =
  let engine, _, server = make_server ~rate:1.0 () in
  let order = ref [] in
  List.iter
    (fun tag ->
      Server.submit server ~work:1.0 ~tag ~on_start:ignore (fun tag -> order := tag :: !order))
    [ 1; 2; 3 ];
  Engine.run engine;
  Alcotest.(check (list int)) "FIFO completion" [ 1; 2; 3 ] (List.rev !order);
  check_float "serialized makespan" 3.0 (Engine.now engine)

let test_server_rate_change_mid_service () =
  let engine, signal, server = make_server ~rate:10.0 () in
  let finish = ref nan in
  (* work 10 at rate 10 would finish at t=1; halving the rate at t=0.5
     leaves 5 units at rate 5 -> finish at 1.5. *)
  Server.submit server ~work:10.0 ~tag:0 ~on_start:ignore (fun _ -> finish := Engine.now engine);
  ignore (Engine.schedule engine ~delay:0.5 (fun () -> Signal.set signal 5.0));
  Engine.run engine;
  check_float "completion re-derived from remaining work" 1.5 !finish

let test_server_zero_rate_stalls () =
  let engine, signal, server = make_server ~rate:10.0 () in
  let finish = ref nan in
  Server.submit server ~work:10.0 ~tag:0 ~on_start:ignore (fun _ -> finish := Engine.now engine);
  ignore (Engine.schedule engine ~delay:0.5 (fun () -> Signal.set signal 0.0));
  ignore (Engine.schedule engine ~delay:2.5 (fun () -> Signal.set signal 10.0));
  Engine.run engine;
  (* 5 units done by 0.5, stalled 2 s, remaining 5 at rate 10 -> 0.5 more. *)
  check_float "stall then resume" 3.0 !finish

let test_server_rate_rise_speeds_up () =
  let engine, signal, server = make_server ~rate:1.0 () in
  let finish = ref nan in
  Server.submit server ~work:10.0 ~tag:0 ~on_start:ignore (fun _ -> finish := Engine.now engine);
  ignore (Engine.schedule engine ~delay:1.0 (fun () -> Signal.set signal 9.0));
  Engine.run engine;
  check_float "1 unit at rate 1, 9 at rate 9" 2.0 !finish

let test_server_on_start () =
  let engine, _, server = make_server ~rate:1.0 () in
  let starts = ref [] in
  List.iter
    (fun tag ->
      Server.submit server ~work:2.0 ~tag
        ~on_start:(fun tag -> starts := (tag, Engine.now engine) :: !starts)
        ignore)
    [ 1; 2 ];
  Engine.run engine;
  Alcotest.(check (list (pair int (float 1e-9)))) "service start instants" [ (1, 0.0); (2, 2.0) ]
    (List.rev !starts)

let test_server_in_service_remaining () =
  (* 2 s at rate 2 leaves 6 of 10 units; at rate 3 they take 2 s more. *)
  let engine, signal, server = make_server ~rate:2.0 () in
  let finish = ref nan in
  Server.submit server ~work:10.0 ~tag:0 ~on_start:ignore (fun _ -> finish := Engine.now engine);
  ignore (Engine.schedule engine ~delay:2.0 (fun () -> Signal.set signal 3.0));
  Engine.run engine;
  check_float "remaining after 2s at rate 2 served at rate 3" 4.0 !finish

let test_server_zero_work () =
  let engine, _, server = make_server () in
  let finish = ref nan in
  Server.submit server ~work:0.0 ~tag:0 ~on_start:ignore (fun _ -> finish := Engine.now engine);
  Engine.run engine;
  check_float "zero work completes immediately" 0.0 !finish

let test_server_invalid_work () =
  let _, _, server = make_server () in
  Alcotest.check_raises "negative work"
    (Invalid_argument "Server.submit: work must be finite and non-negative") (fun () ->
      Server.submit server ~work:(-1.0) ~tag:0 ~on_start:ignore (fun _ -> ()))

let test_server_resubmit_from_callback () =
  let engine, _, server = make_server ~rate:1.0 () in
  let finishes = ref [] in
  Server.submit server ~work:1.0 ~tag:0 ~on_start:ignore (fun _ ->
      finishes := Engine.now engine :: !finishes;
      Server.submit server ~work:1.0 ~tag:0 ~on_start:ignore (fun _ ->
          finishes := Engine.now engine :: !finishes));
  Engine.run engine;
  Alcotest.(check (list (float 1e-9))) "chained submissions run back-to-back" [ 1.0; 2.0 ]
    (List.rev !finishes)

let test_server_shared_rate_signal () =
  (* Two servers driven by one signal must both retime on a change. *)
  let engine = Engine.create () in
  let signal = Signal.create 10.0 in
  let a = Server.create engine ~rate:signal in
  let b = Server.create engine ~rate:signal in
  let fa = ref nan and fb = ref nan in
  Server.submit a ~work:10.0 ~tag:0 ~on_start:ignore (fun _ -> fa := Engine.now engine);
  Server.submit b ~work:20.0 ~tag:0 ~on_start:ignore (fun _ -> fb := Engine.now engine);
  ignore (Engine.schedule engine ~delay:0.5 (fun () -> Signal.set signal 5.0));
  Engine.run engine;
  check_float "server a retimed" 1.5 !fa;
  check_float "server b retimed" 3.5 !fb

let test_server_random_rate_schedule =
  (* Property: total work done equals the integral of the rate over the busy
     period, i.e. completion happens exactly when the integral reaches the
     submitted work. *)
  qtest ~count:60 "completion matches rate-signal integral"
    QCheck2.Gen.(
      pair (float_range 1.0 50.0) (list_size (int_range 0 8) (float_range 0.1 10.0)))
    (fun (work, rates) ->
      let engine = Engine.create () in
      let signal = Signal.create 1.0 in
      let server = Server.create engine ~rate:signal in
      let finish = ref nan in
      Server.submit server ~work ~tag:0 ~on_start:ignore (fun _ -> finish := Engine.now engine);
      List.iteri
        (fun i rate ->
          ignore
            (Engine.schedule_at engine
               ~time:(Float.of_int (i + 1))
               (fun () -> Signal.set signal rate)))
        rates;
      Engine.run engine;
      if Float.is_nan !finish then false
      else begin
        (* Integrate the applied schedule up to the completion time. *)
        let rate_at t =
          let rec find i value = function
            | [] -> value
            | r :: rest ->
                if t >= Float.of_int (i + 1) then find (i + 1) r rest else value
          in
          find 0 1.0 rates
        in
        let steps = 20_000 in
        let dt = !finish /. Float.of_int steps in
        let integral = ref 0.0 in
        for k = 0 to steps - 1 do
          integral := !integral +. (rate_at ((Float.of_int k +. 0.5) *. dt) *. dt)
        done;
        Float.abs (!integral -. work) < 0.05 *. work +. 0.1
      end)



let test_engine_random_schedule_order =
  qtest ~count:100 "random schedules fire in time order; cancelled never fire"
    QCheck2.Gen.(list_size (int_range 0 60) (pair (float_range 0.0 100.0) bool))
    (fun events ->
      let engine = Engine.create () in
      let fired = ref [] in
      let cancelled_fired = ref false in
      List.iter
        (fun (delay, cancel) ->
          let h =
            Engine.schedule_cancellable engine ~delay (fun () ->
                if cancel then cancelled_fired := true
                else fired := Engine.now engine :: !fired)
          in
          if cancel then Engine.cancel h)
        events;
      Engine.run engine;
      let times = List.rev !fired in
      let expected =
        List.filter_map (fun (d, c) -> if c then None else Some d) events
        |> List.sort Float.compare
      in
      (not !cancelled_fired) && times = expected)

(* A series fires where the eager loop of [schedule_at] calls it replaces
   would have. Instants come from a coarse grid, so many coincide, and they
   interleave with events scheduled before the series, after it, and from
   inside its callbacks, at the same instants. The engine's clock is past 0
   when the series is scheduled. *)
let test_engine_series_matches_eager =
  let half k = 1.0 +. (0.5 *. Float.of_int k) in
  qtest ~count:300 "schedule_series fires in the eager schedule_at order"
    QCheck2.Gen.(
      quad
        (list_size (int_range 0 12) (int_range 0 6))
        (list_size (int_range 0 6) (int_range 0 6))
        (list_size (int_range 0 6) (int_range 0 6))
        (list_size (int_range 0 12) (int_range (-1) 2)))
    (fun (series, before, after, nested) ->
      let times = Array.of_list (List.map half (List.sort compare series)) in
      let run ~series =
        let engine = Engine.create () in
        Engine.run ~until:1.0 engine;
        let log = ref [] in
        let at time tag = Engine.schedule_at engine ~time (fun () -> log := tag :: !log) in
        List.iteri (fun k h -> at (half h) (`Before k)) before;
        let fire i =
          log := `Series i :: !log;
          match List.nth_opt nested i with
          | Some d when d >= 0 ->
              Engine.schedule engine ~delay:(0.5 *. Float.of_int d) (fun () ->
                  log := `Nested i :: !log)
          | Some _ | None -> ()
        in
        if series then Engine.schedule_series engine ~times fire
        else Array.iteri (fun i time -> Engine.schedule_at engine ~time (fun () -> fire i)) times;
        List.iteri (fun k h -> at (half h) (`After k)) after;
        Engine.run engine;
        List.rev !log
      in
      run ~series:true = run ~series:false)

(* A series with a non-finite, past or decreasing instant is refused at the
   call, before anything is scheduled; the eager loop refused the first two
   at the offending [schedule_at]. *)
let test_engine_series_invalid () =
  let engine = Engine.create () in
  Engine.run ~until:1.0 engine;
  let fired = ref 0 in
  List.iter
    (fun (name, times) ->
      match Engine.schedule_series engine ~times (fun _ -> incr fired) with
      | () -> Alcotest.failf "%s instant accepted" name
      | exception Invalid_argument _ -> ())
    [
      ("nan", [| 1.0; nan |]);
      ("infinite", [| 1.5; infinity |]);
      ("past", [| 0.5; 2.0 |]);
      ("decreasing", [| 2.0; 1.5 |]);
    ];
  List.iter
    (fun (name, time) ->
      match Engine.schedule_at engine ~time ignore with
      | () -> Alcotest.failf "eager %s instant accepted" name
      | exception Invalid_argument _ -> ())
    [ ("nan", nan); ("infinite", infinity); ("past", 0.5) ];
  Engine.schedule_series engine ~times:[||] (fun _ -> incr fired);
  Engine.run engine;
  Alcotest.(check int) "refused series schedule nothing" 0 !fired;
  Engine.schedule_series engine ~times:[| 1.0; 1.0; 3.0 |] (fun _ -> incr fired);
  Engine.run engine;
  Alcotest.(check int) "a valid series fires every instant" 3 !fired;
  check_float "clock at the last instant" 3.0 (Engine.now engine)

(* -------------------------------------------------------------- Process *)

module Process = Aspipe_des.Process

let test_process_sleep_interleaves () =
  let engine = Engine.create () in
  let log = ref [] in
  Process.spawn engine (fun () ->
      log := ("a", Process.now ()) :: !log;
      Process.sleep 2.0;
      log := ("a", Process.now ()) :: !log);
  Process.spawn engine (fun () ->
      Process.sleep 1.0;
      log := ("b", Process.now ()) :: !log);
  Engine.run engine;
  Alcotest.(check (list (pair string (float 1e-9)))) "interleaved by virtual time"
    [ ("a", 0.0); ("b", 1.0); ("a", 2.0) ]
    (List.rev !log)

let test_process_spawn_at () =
  let engine = Engine.create () in
  let started = ref nan in
  ignore
    (Engine.schedule_at engine ~time:5.0 (fun () ->
         Process.spawn engine (fun () -> started := Process.now ())));
  Engine.run engine;
  check_float "starts at the requested time" 5.0 !started

let test_process_await_bridges_callbacks () =
  (* A process submits to a rate-modulated server and awaits the completion
     callback — sequential code over the callback API. *)
  let engine = Engine.create () in
  let signal = Signal.create 10.0 in
  let server = Server.create engine ~rate:signal in
  let finish = ref nan in
  Process.spawn engine (fun () ->
      Process.await (fun k ->
          Server.submit server ~work:20.0 ~tag:0 ~on_start:ignore (fun _ -> k ()));
      finish := Process.now ());
  Engine.run engine;
  check_float "resumed exactly at service completion" 2.0 !finish

let test_process_outside_raises () =
  Alcotest.check_raises "sleep outside a process"
    (Failure "Process.sleep: must be called from inside a process") (fun () ->
      Process.sleep 1.0);
  Alcotest.check_raises "now outside a process"
    (Failure "Process.now: must be called from inside a process") (fun () ->
      ignore (Process.now ()))

let test_process_mailbox () =
  let engine = Engine.create () in
  let mailbox = Process.Mailbox.create engine in
  let received = ref [] in
  Process.spawn engine (fun () ->
      for _ = 1 to 3 do
        let v = Process.Mailbox.recv mailbox in
        received := (v, Process.now ()) :: !received
      done);
  Process.spawn engine (fun () ->
      Process.Mailbox.send mailbox 10 (* consumed immediately *);
      Process.sleep 2.0;
      Process.Mailbox.send mailbox 20;
      Process.Mailbox.send mailbox 30);
  Engine.run engine;
  Alcotest.(check (list (pair int (float 1e-9)))) "messages received in order, at send times"
    [ (10, 0.0); (20, 2.0); (30, 2.0) ]
    (List.rev !received)

let test_process_mailbox_buffers () =
  let engine = Engine.create () in
  let mailbox = Process.Mailbox.create engine in
  Process.Mailbox.send mailbox "x";
  Process.Mailbox.send mailbox "y";
  let received = ref [] in
  Process.spawn engine (fun () ->
      for _ = 1 to 2 do
        received := Process.Mailbox.recv mailbox :: !received
      done);
  Engine.run engine;
  Alcotest.(check (list string)) "both buffered when nobody waits, fifo" [ "x"; "y" ]
    (List.rev !received)

let () =
  Alcotest.run "aspipe_des"
    [
      ( "pqueue",
        [
          test_pqueue_ordering;
          Alcotest.test_case "fifo ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "cancel" `Quick test_pqueue_cancel;
          Alcotest.test_case "peek skips cancelled" `Quick test_pqueue_peek_skips_cancelled;
          Alcotest.test_case "empty" `Quick test_pqueue_empty;
          Alcotest.test_case "pop_if horizon" `Quick test_pqueue_pop_if_horizon;
          Alcotest.test_case "pop_min read-back" `Quick test_pqueue_pop_min_readback;
          Alcotest.test_case "pop_if drops cancelled beyond horizon" `Quick
            test_pqueue_pop_if_drops_cancelled_beyond_horizon;
          test_pqueue_matches_model;
        ] );
      ( "engine",
        [
          Alcotest.test_case "order" `Quick test_engine_order;
          Alcotest.test_case "same-time fifo" `Quick test_engine_same_time_fifo;
          Alcotest.test_case "invalid" `Quick test_engine_invalid;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "nested" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "run until" `Quick test_engine_run_until;
          Alcotest.test_case "periodic" `Quick test_engine_periodic;
          Alcotest.test_case "periodic start" `Quick test_engine_periodic_start;
          test_engine_series_matches_eager;
          Alcotest.test_case "series refuses bad instants" `Quick test_engine_series_invalid;
          test_engine_random_schedule_order;
        ] );
      ( "signal",
        [
          Alcotest.test_case "basics" `Quick test_signal_basics;
          Alcotest.test_case "history" `Quick test_signal_history;
        ] );
      ( "process",
        [
          Alcotest.test_case "sleep interleaves" `Quick test_process_sleep_interleaves;
          Alcotest.test_case "spawn at" `Quick test_process_spawn_at;
          Alcotest.test_case "await bridges callbacks" `Quick test_process_await_bridges_callbacks;
          Alcotest.test_case "outside a process" `Quick test_process_outside_raises;
          Alcotest.test_case "mailbox" `Quick test_process_mailbox;
          Alcotest.test_case "mailbox buffers" `Quick test_process_mailbox_buffers;
        ] );
      ( "server",
        [
          Alcotest.test_case "single job timing" `Quick test_server_single_job_timing;
          Alcotest.test_case "fifo" `Quick test_server_fifo;
          Alcotest.test_case "rate change mid-service" `Quick test_server_rate_change_mid_service;
          Alcotest.test_case "zero rate stalls" `Quick test_server_zero_rate_stalls;
          Alcotest.test_case "rate rise" `Quick test_server_rate_rise_speeds_up;
          Alcotest.test_case "on_start" `Quick test_server_on_start;
          Alcotest.test_case "in-service remaining" `Quick test_server_in_service_remaining;
          Alcotest.test_case "zero work" `Quick test_server_zero_work;
          Alcotest.test_case "invalid work" `Quick test_server_invalid_work;
          Alcotest.test_case "resubmit from callback" `Quick test_server_resubmit_from_callback;
          Alcotest.test_case "shared rate signal" `Quick test_server_shared_rate_signal;
          test_server_random_rate_schedule;
        ] );
    ]
