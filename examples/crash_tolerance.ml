(* Crash tolerance: the paper's introduction, reproduced (Sec 1 / E8).

   The same failure — Bob crashes the moment Alice redeems and stays
   down past the timelock — is played against both protocols:

     - under Nolan's hashlock/timelock swap, Alice ends up with *both*
       assets: SC2 redeemed by Alice, SC1 refunded to Alice after t1
       expired. All-or-nothing atomicity is violated and Bob is out his
       coins.
     - under AC3WN there are no timelocks to outlast: the witness
       network's commit decision stays on chain, and Bob redeems when he
       recovers. Atomicity holds.

     dune exec examples/crash_tolerance.exe *)

module U = Ac3_core.Universe
module S = Ac3_core.Scenarios
module A = Ac3_core.Ac3wn
module H = Ac3_core.Herlihy
module N = Ac3_core.Nolan
module Run = Ac3_core.Swap_run
module P = Ac3_core.Participant
module Outcome = Ac3_core.Outcome
open Ac3_chain

let show_balances tag alice bob =
  Fmt.pr "  [%s] Alice: btc=%a eth=%a | Bob: btc=%a eth=%a@." tag Amount.pp
    (P.balance_on alice "btc") Amount.pp (P.balance_on alice "eth") Amount.pp
    (P.balance_on bob "btc") Amount.pp (P.balance_on bob "eth")

let () =
  Fmt.pr "=== Crash failures: Nolan's swap vs AC3WN ===@.@.";

  (* --- Scenario 1: Nolan's protocol, Bob crashes after Alice redeems --- *)
  Fmt.pr "--- Nolan's hashlock/timelock swap ---@.";
  let ids = S.identities 2 in
  let u1, ps1 = S.make_universe ~seed:404 ~chains:[ "btc"; "eth" ] ids () in
  let alice1 = List.nth ps1 0 and bob1 = List.nth ps1 1 in
  U.run_until u1 100.0;
  let graph1 = S.two_party_graph ~chain1:"btc" ~chain2:"eth" ids ~timestamp:(U.now u1) in
  show_balances "before" alice1 bob1;
  (* Crash Bob the instant Alice's redeem of SC2 hits the chain (edge 1
     is Bob -> Alice on eth); he stays down past every timelock. *)
  let hooks = [ ("redeem:1", fun () -> P.crash bob1) ] in
  let config = { (H.default_config ~delta:(U.max_delta u1)) with H.timeout = 5000.0 } in
  let r1 = N.execute u1 ~config ~graph:graph1 ~participants:ps1 ~hooks () in
  show_balances "after " alice1 bob1;
  Fmt.pr "  outcome: %a@." Outcome.pp r1.Run.outcome;
  if r1.Run.atomic then begin
    Fmt.pr "  unexpected: no violation@.";
    exit 1
  end;
  Fmt.pr "  ==> ATOMICITY VIOLATED: Alice redeemed Bob's ethers AND refunded her bitcoins.@.";
  Fmt.pr "      Bob lost his coins to a crash outside his control.@.@.";

  (* --- Scenario 2: AC3WN, same crash, same duration ------------------- *)
  Fmt.pr "--- AC3WN under the same crash ---@.";
  let u2, ps2 = S.make_universe ~seed:405 ~chains:[ "btc"; "eth" ] ids () in
  let alice2 = List.nth ps2 0 and bob2 = List.nth ps2 1 in
  U.run_until u2 100.0;
  let graph2 = S.two_party_graph ~chain1:"btc" ~chain2:"eth" ids ~timestamp:(U.now u2) in
  show_balances "before" alice2 bob2;
  (* Bob crashes as soon as the commit decision is requested, and only
     recovers 600 virtual seconds later — far beyond the window that
     ruined him under Nolan's protocol. *)
  let hooks =
    [
      ( "authorize_redeem_submitted",
        fun () ->
          P.crash bob2;
          ignore
            (Ac3_sim.Engine.schedule (U.engine u2) ~delay:600.0 (fun () -> P.recover bob2)) );
    ]
  in
  let config =
    { (A.default_config ~witness_chain:"witness") with A.decision_depth = 4; timeout = 20_000.0 }
  in
  let r2 = A.execute u2 ~config ~graph:graph2 ~participants:ps2 ~hooks () in
  show_balances "after " alice2 bob2;
  Fmt.pr "  outcome: %a@." Outcome.pp r2.Run.outcome;
  if not (r2.Run.committed && r2.Run.atomic) then begin
    Fmt.pr "  unexpected: AC3WN failed to commit atomically@.";
    exit 1
  end;
  Fmt.pr "  ==> ATOMIC: the commit decision waited on chain; Bob redeemed after recovering.@."
