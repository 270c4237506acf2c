(* The benchmark's own tests: metric arithmetic, and each workload at its
   smoke size passing its correctness checks with deterministic
   outputs. *)

module Arith = Perfbench.Arith
module W = Perfbench.Workloads

let floats = List.init 1000 (fun i -> float_of_int (i + 1))

let test_percentile_tail () =
  Alcotest.(check (pair (float 0.0) int)) "p99 of 1..1000" (990.0, 10) (Arith.percentile_tail floats 99.0);
  Alcotest.(check (option (float 0.0))) "10 beyond: reported" (Some 990.0)
    (Arith.supported_percentile floats 99.0);
  Alcotest.(check (option (float 0.0))) "9 beyond: withheld" None
    (Arith.supported_percentile (List.filteri (fun i _ -> i < 999) floats) 99.0);
  Alcotest.(check (pair (float 0.0) int)) "p50 of 1..1000" (500.0, 500) (Arith.percentile_tail floats 50.0);
  Alcotest.(check int) "empty: nothing beyond" 0 (snd (Arith.percentile_tail [] 99.0))

let test_failed_frac () =
  Alcotest.(check (float 1e-12)) "3 of 40" 0.075 (Arith.failed_frac ~failed:3 ~attempted:40);
  Alcotest.(check (float 0.0)) "none failed" 0.0 (Arith.failed_frac ~failed:0 ~attempted:1);
  Alcotest.check_raises "nothing attempted" (Invalid_argument "failed_frac: nothing attempted")
    (fun () -> ignore (Arith.failed_frac ~failed:0 ~attempted:0))

let test_unattributed_share () =
  (* verify's second is inside apply_block's four: counting it again
     would claim 8 of 10 seconds. *)
  let phases = [ ("chain.apply_block", 4.0); ("crypto.verify", 1.0); ("crypto.keygen", 3.0) ] in
  Alcotest.(check (float 1e-12)) "nested phase counted once" 0.3
    (Arith.unattributed_share ~wall:10.0 ~nested:Arith.nested_phases phases);
  Alcotest.(check (float 1e-12)) "no nesting" 0.2
    (Arith.unattributed_share ~wall:10.0 ~nested:[] phases);
  Alcotest.(check (float 0.0)) "clamped at zero" 0.0
    (Arith.unattributed_share ~wall:5.0 ~nested:[] phases)

let run name ~traced =
  match W.find name with
  | None -> Alcotest.failf "unknown workload %s" name
  | Some w ->
      W.spans := [];
      (w W.Smoke ~seed:11 ~traced) ()

let check_clean name (r : W.result) =
  List.iter (fun (check, ok) -> Alcotest.(check bool) (name ^ ": " ^ check) true ok) r.W.checks;
  Alcotest.(check bool) (name ^ ": attempted") true (r.W.attempted >= 1);
  Alcotest.(check bool) (name ^ ": failed within attempted") true
    (r.W.failed >= 0 && r.W.failed <= r.W.attempted)

let test_smoke name () =
  let plain = run name ~traced:false in
  check_clean name plain;
  Ac3_fast.Profile.enable ();
  Ac3_fast.Profile.reset ();
  let traced = run name ~traced:true in
  Ac3_fast.Profile.disable ();
  check_clean name traced;
  Alcotest.(check string) (name ^ ": tracing leaves the outcome alone") plain.W.digest traced.W.digest;
  Alcotest.(check (list (pair string (float 0.0)))) (name ^ ": outcomes repeat") plain.W.outcome
    traced.W.outcome;
  Alcotest.(check bool) (name ^ ": timed span recorded") true
    (List.exists (fun s -> s.W.parent = Some "run") !W.spans)

let test_load_smoke_accounting () =
  let r = run "load-open" ~traced:true in
  Alcotest.(check int) "every swap launched" 40 r.W.attempted;
  (* 40 swaps leave fewer than ten latencies beyond p99. *)
  Alcotest.(check bool) "p99 withheld" false (List.mem_assoc "swap_latency_p99_vs" r.W.outcome);
  Alcotest.(check bool) "blocks mined" true
    (Option.value (List.assoc_opt "chain.block.mined" r.W.layers) ~default:0.0 > 0.0)

let () =
  Alcotest.run "perfbench"
    [
      ( "arith",
        [
          Alcotest.test_case "percentile with 10 beyond" `Quick test_percentile_tail;
          Alcotest.test_case "failed_frac" `Quick test_failed_frac;
          Alcotest.test_case "unattributed_share with nested phases" `Quick test_unattributed_share;
        ] );
      ( "smoke",
        List.map (fun name -> Alcotest.test_case name `Quick (test_smoke name))
          [ "load-open"; "chaos-sweep"; "model-ring" ]
        @ [ Alcotest.test_case "load-open accounting" `Quick test_load_smoke_accounting ] );
    ]
