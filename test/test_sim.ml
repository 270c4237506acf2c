(* Tests for the discrete-event simulation substrate. *)

open Ac3_sim

(* --- Rng -------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xs = List.init 10 (fun _ -> Rng.int64 a) in
  let ys = List.init 10 (fun _ -> Rng.int64 b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_int_bounds () =
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_float_bounds () =
  let r = Rng.create 2 in
  for _ = 1 to 1000 do
    let v = Rng.float r 3.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 3.5)
  done

let test_rng_exponential_mean () =
  let r = Rng.create 3 in
  let n = 20_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Rng.exponential r ~mean:5.0
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool) "mean close to 5" true (abs_float (mean -. 5.0) < 0.25)

let test_rng_bernoulli_rate () =
  let r = Rng.create 4 in
  let n = 20_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli r 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "rate close to 0.3" true (abs_float (rate -. 0.3) < 0.02)

let test_rng_bytes_length () =
  let r = Rng.create 5 in
  List.iter
    (fun n -> Alcotest.(check int) "length" n (Bytes.length (Rng.bytes r n)))
    [ 0; 1; 7; 8; 9; 32; 100 ]

let test_rng_shuffle_permutation () =
  let r = Rng.create 6 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

(* --- Heap ------------------------------------------------------------- *)

let test_heap_sorts () =
  let h = Heap.create compare in
  let input = [ 5; 3; 9; 1; 7; 2; 8; 0; 4; 6 ] in
  List.iter (Heap.push h) input;
  Alcotest.(check (list int)) "ascending" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (Heap.to_list h)

let test_heap_peek_pop () =
  let h = Heap.create compare in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Heap.push h 3;
  Heap.push h 1;
  Alcotest.(check (option int)) "peek" (Some 1) (Heap.peek h);
  Alcotest.(check (option int)) "pop" (Some 1) (Heap.pop h);
  Alcotest.(check (option int)) "pop" (Some 3) (Heap.pop h);
  Alcotest.(check (option int)) "drained" None (Heap.pop h)

let test_heap_random_qcheck =
  QCheck.Test.make ~name:"heap drains any list sorted" ~count:200
    QCheck.(list int)
    (fun l ->
      let h = Heap.create compare in
      List.iter (Heap.push h) l;
      Heap.to_list h = List.sort compare l)

(* iter visits every element exactly once (in arbitrary order) and,
   unlike to_list, does not drain the heap. *)
let test_heap_iter_nondestructive () =
  let h = Heap.create compare in
  let input = [ 5; 3; 9; 1; 7 ] in
  List.iter (Heap.push h) input;
  let seen = ref [] in
  Heap.iter h (fun x -> seen := x :: !seen);
  Alcotest.(check (list int)) "visits all elements" (List.sort compare input)
    (List.sort compare !seen);
  Alcotest.(check int) "heap untouched" (List.length input) (Heap.length h);
  Alcotest.(check (list int)) "still drains sorted" (List.sort compare input) (Heap.to_list h)

let test_heap_iter_empty () =
  let h = Heap.create compare in
  Heap.iter h (fun (_ : int) -> Alcotest.fail "iter on empty heap called f");
  (* a popped-to-empty heap must not revisit stale slots *)
  Heap.push h 1;
  ignore (Heap.pop h);
  Heap.iter h (fun (_ : int) -> Alcotest.fail "iter after drain called f")

(* --- Engine ----------------------------------------------------------- *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:2.0 (fun () -> log := "b" :: !log);
  Engine.schedule e ~delay:1.0 (fun () -> log := "a" :: !log);
  Engine.schedule e ~delay:3.0 (fun () -> log := "c" :: !log);
  ignore (Engine.run e);
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log)
  done;
  ignore (Engine.run e);
  Alcotest.(check (list int)) "scheduling order at equal time" (List.init 10 Fun.id)
    (List.rev !log)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let times = ref [] in
  Engine.schedule e ~delay:1.0 (fun () ->
      times := Engine.now e :: !times;
      Engine.schedule e ~delay:1.5 (fun () -> times := Engine.now e :: !times));
  ignore (Engine.run e);
  Alcotest.(check (list (float 1e-9))) "nested times" [ 1.0; 2.5 ] (List.rev !times)

let test_engine_horizon () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.schedule e ~delay:1.0 (fun () -> incr fired);
  Engine.schedule e ~delay:5.0 (fun () -> incr fired);
  ignore (Engine.run ~until:2.0 e);
  Alcotest.(check int) "only first fired" 1 !fired;
  Alcotest.(check (float 1e-9)) "clock at horizon" 2.0 (Engine.now e);
  ignore (Engine.run e);
  Alcotest.(check int) "second fires later" 2 !fired

let test_engine_past_rejected () =
  let e = Engine.create () in
  Engine.schedule e ~delay:1.0 (fun () -> ());
  ignore (Engine.run e);
  Alcotest.check_raises "past scheduling rejected"
    (Invalid_argument "Engine.schedule_at: time 0.500000 is in the past (now 1.000000)")
    (fun () -> Engine.schedule_at e ~time:0.5 (fun () -> ()))

let test_engine_repeating () =
  let e = Engine.create () in
  let count = ref 0 in
  let stop = Engine.schedule_repeating e ~first:1.0 ~every:1.0 (fun () -> incr count) in
  ignore (Engine.run ~until:5.5 e);
  stop ();
  ignore (Engine.run ~until:10.0 e);
  Alcotest.(check int) "fired until stopped" 5 !count

(* The clock advances to the horizon when the queue drains early — even
   when the queue was empty to begin with — so back-to-back run ~until
   calls see monotone time. *)
let test_engine_until_advances_drained_clock () =
  let e = Engine.create () in
  Alcotest.(check int) "nothing to run" 0 (Engine.run ~until:5.0 e);
  Alcotest.(check (float 1e-9)) "clock at horizon" 5.0 (Engine.now e);
  (* schedule_at a pre-horizon time is now in the past *)
  (match Engine.schedule_at e ~time:4.0 (fun () -> ()) with
  | _ -> Alcotest.fail "pre-horizon schedule_at should be rejected"
  | exception Invalid_argument _ -> ());
  ignore (Engine.run ~until:3.0 e);
  Alcotest.(check (float 1e-9)) "clock never rewinds" 5.0 (Engine.now e)

(* A stop condition ends the run without advancing to the horizon: the
   simulation may resume from where it actually stopped. *)
let test_engine_stop_keeps_clock () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.schedule e ~delay:1.0 (fun () -> incr fired);
  Engine.schedule e ~delay:2.0 (fun () -> incr fired);
  let executed = Engine.run ~until:10.0 ~stop:(fun () -> !fired >= 1) e in
  Alcotest.(check int) "stopped after one event" 1 executed;
  Alcotest.(check (float 1e-9)) "clock stays at the stop point" 1.0 (Engine.now e);
  Alcotest.(check int) "second event still pending" 1 (Engine.pending_events e);
  ignore (Engine.run e);
  Alcotest.(check int) "resumes to completion" 2 !fired

let test_engine_schedule_boundaries () =
  let e = Engine.create () in
  Engine.schedule e ~delay:1.0 (fun () -> ());
  ignore (Engine.run e);
  (match Engine.schedule e ~delay:(-0.5) (fun () -> ()) with
  | _ -> Alcotest.fail "negative delay should be rejected"
  | exception Invalid_argument _ -> ());
  (* exactly-now is allowed: the event fires at the current instant *)
  let fired = ref false in
  Engine.schedule_at e ~time:(Engine.now e) (fun () -> fired := true);
  ignore (Engine.run e);
  Alcotest.(check bool) "time = now fires" true !fired;
  Alcotest.(check (float 1e-9)) "clock unchanged" 1.0 (Engine.now e)

(* --- Slot reuse: the engine's free list ------------------------------ *)

(* Fired events free their slots for later ones. A thousand rounds of two
   events each, with at most two in flight: slots recycle through the free
   list and events still fire in (time, seq) order throughout. *)
let test_arena_free_list_reuse () =
  let e = Engine.create () in
  let log = ref [] in
  for round = 1 to 1000 do
    let t = float_of_int round in
    for k = 0 to 1 do
      Engine.schedule_at e ~time:t (fun () -> log := (Engine.now e, k) :: !log)
    done;
    Alcotest.(check int) "two in flight" 2 (Engine.pending_events e);
    ignore (Engine.run e)
  done;
  Alcotest.(check int) "drained" 0 (Engine.pending_events e);
  let expect =
    List.concat_map (fun r -> [ (float_of_int r, 0); (float_of_int r, 1) ]) (List.init 1000 succ)
  in
  Alcotest.(check (list (pair (float 1e-9) int))) "fire order over recycled slots" expect
    (List.rev !log)

(* A hundred events at one instant grow the queue past its initial
   capacity, and each schedules a successor at the same instant from
   inside dispatch, taking the slot just freed. (time, seq) order must win
   over slot index: successors after every original, in the order they
   were scheduled, whatever slot they landed in. *)
let test_arena_equal_time_tie_break_across_reuse () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 99 do
    Engine.schedule e ~delay:1.0 (fun () ->
        log := i :: !log;
        Engine.schedule e ~delay:0.0 (fun () -> log := (100 + i) :: !log))
  done;
  Alcotest.(check int) "all queued" 100 (Engine.pending_events e);
  Alcotest.(check int) "originals and successors ran" 200 (Engine.run e);
  Alcotest.(check (list int)) "seq order, not slot order" (List.init 200 Fun.id) (List.rev !log)

let test_engine_free_list_reuse_at_scale () =
  let e = Engine.create () in
  let fired = ref 0 in
  for _ = 1 to 500 do
    for i = 0 to 7 do
      Engine.schedule e ~delay:(float_of_int i) (fun () -> incr fired)
    done;
    ignore (Engine.run e)
  done;
  Alcotest.(check int) "every recycled event fired" (500 * 8) !fired;
  Alcotest.(check int) "executed counter agrees" (500 * 8) (Engine.executed_events e);
  Alcotest.(check int) "queue drained" 0 (Engine.pending_events e)

(* --- Trace ------------------------------------------------------------ *)

let test_trace_spans () =
  let tr = Trace.create () in
  Trace.record tr ~time:1.0 "start";
  Trace.record tr ~time:2.0 "deploy";
  Trace.record tr ~time:4.0 "deploy";
  Trace.record tr ~time:9.0 "done";
  Alcotest.(check (option (float 1e-9))) "span" (Some 8.0) (Trace.span tr ~from_:"start" ~to_:"done");
  Alcotest.(check (option (float 1e-9)))
    "span_to_last" (Some 3.0)
    (Trace.span_to_last tr ~from_:"start" ~to_:"deploy");
  Alcotest.(check int) "find_all" 2 (List.length (Trace.find_all tr "deploy"));
  Alcotest.(check (option (float 1e-9))) "missing" None (Trace.span tr ~from_:"start" ~to_:"nope")

let test_trace_find_first_occurrence () =
  (* Records live in arrival order: [find]/[time_of] must return the
     *first* occurrence of a label, [last_time_of] the last — under
     repeated lookups (chaos runs make traces hot) and growth across the
     internal array-doubling boundary. *)
  let tr = Trace.create () in
  for i = 0 to 99 do
    Trace.record tr ~time:(float_of_int i) ~attrs:[ ("n", string_of_int i) ] "tick"
  done;
  Alcotest.(check int) "length" 100 (Trace.length tr);
  (match Trace.find tr "tick" with
  | None -> Alcotest.fail "find missed"
  | Some r ->
      Alcotest.(check (float 1e-9)) "first time" 0.0 r.Trace.time;
      Alcotest.(check (list (pair string string))) "first attrs" [ ("n", "0") ] r.Trace.attrs);
  Alcotest.(check (option (float 1e-9))) "time_of = first" (Some 0.0) (Trace.time_of tr "tick");
  Alcotest.(check (option (float 1e-9))) "last_time_of = last" (Some 99.0)
    (Trace.last_time_of tr "tick");
  (* Chronological order is preserved end to end. *)
  let times = List.map (fun r -> r.Trace.time) (Trace.records tr) in
  Alcotest.(check (list (float 1e-9))) "arrival order" (List.init 100 float_of_int) times

(* --- Stats ------------------------------------------------------------ *)

let test_stats_basic () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Stats.mean xs);
  Alcotest.(check (float 1e-9)) "max" 5.0 (Stats.maximum xs);
  Alcotest.(check (float 1e-9)) "median" 3.0 (Stats.median xs)

let test_stats_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Stats.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "p95" 95.0 (Stats.percentile xs 95.0);
  Alcotest.(check (float 1e-9)) "p99" 99.0 (Stats.percentile xs 99.0)

(* Regression: a NaN in the sample list used to be sorted with
   polymorphic [compare], leaving the array in an unspecified order and
   the percentiles garbage. Order statistics now drop NaNs; the mean
   propagates them. *)
let test_stats_nan_policy () =
  let xs = [ 5.0; nan; 1.0; 4.0; nan; 2.0; 3.0 ] in
  Alcotest.(check (float 1e-9)) "p50 ignores NaNs" 3.0 (Stats.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "p99 ignores NaNs" 5.0 (Stats.percentile xs 99.0);
  Alcotest.(check (float 1e-9)) "max ignores NaNs" 5.0 (Stats.maximum xs);
  Alcotest.(check bool) "all-NaN -> NaN" true (Float.is_nan (Stats.percentile [ nan; nan ] 50.0));
  Alcotest.(check bool) "empty -> NaN" true (Float.is_nan (Stats.maximum []));
  Alcotest.(check bool) "mean propagates NaN" true (Float.is_nan (Stats.mean xs))

let qcheck_stats_mean_bounds =
  QCheck.Test.make ~name:"mean lies within min..max" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let m = Stats.mean xs in
      m >= List.fold_left Float.min infinity xs -. 1e-9 && m <= Stats.maximum xs +. 1e-9)

let () =
  Alcotest.run "sim"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "bernoulli rate" `Quick test_rng_bernoulli_rate;
          Alcotest.test_case "bytes length" `Quick test_rng_bytes_length;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        ] );
      ( "heap",
        [
          Alcotest.test_case "sorts" `Quick test_heap_sorts;
          Alcotest.test_case "peek/pop" `Quick test_heap_peek_pop;
          QCheck_alcotest.to_alcotest test_heap_random_qcheck;
          Alcotest.test_case "iter is non-destructive" `Quick test_heap_iter_nondestructive;
          Alcotest.test_case "iter skips empty and drained" `Quick test_heap_iter_empty;
        ] );
      ( "engine",
        [
          Alcotest.test_case "time ordering" `Quick test_engine_ordering;
          Alcotest.test_case "FIFO ties" `Quick test_engine_fifo_ties;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "horizon" `Quick test_engine_horizon;
          Alcotest.test_case "past rejected" `Quick test_engine_past_rejected;
          Alcotest.test_case "repeating" `Quick test_engine_repeating;
          Alcotest.test_case "until advances drained clock" `Quick
            test_engine_until_advances_drained_clock;
          Alcotest.test_case "stop keeps clock" `Quick test_engine_stop_keeps_clock;
          Alcotest.test_case "schedule boundaries" `Quick test_engine_schedule_boundaries;
          Alcotest.test_case "free-list reuse at scale" `Quick test_engine_free_list_reuse_at_scale;
        ] );
      ( "arena",
        [
          Alcotest.test_case "free-list reuse" `Quick test_arena_free_list_reuse;
          Alcotest.test_case "equal-time tie-break across reuse" `Quick
            test_arena_equal_time_tie_break_across_reuse;
        ] );
      ( "trace",
        [
          Alcotest.test_case "spans" `Quick test_trace_spans;
          Alcotest.test_case "find returns first occurrence" `Quick
            test_trace_find_first_occurrence;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "NaN drop policy" `Quick test_stats_nan_policy;
          QCheck_alcotest.to_alcotest qcheck_stats_mean_bounds;
        ] );
    ]
