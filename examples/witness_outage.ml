(* Witness availability (Sec 4.1 vs 4.2).

   Both AC3 protocols are atomic — but AC3TW trusts a single witness,
   Trent, and when Trent goes down mid-protocol (crash, denial of
   service), no commit or abort decision can ever be issued: the locked
   assets are stuck until he returns. AC3WN replaces Trent with a
   permissionless witness network, which keeps deciding as long as the
   chain keeps producing blocks, miner crashes notwithstanding.

     dune exec examples/witness_outage.exe *)

module U = Ac3_core.Universe
module S = Ac3_core.Scenarios
module A = Ac3_core.Ac3wn
module T = Ac3_core.Ac3tw
module Run = Ac3_core.Swap_run
module P = Ac3_core.Participant
module Trent = Ac3_core.Trent
module Outcome = Ac3_core.Outcome
open Ac3_chain

let () =
  Fmt.pr "=== Witness outages: one Trent vs a network of witnesses ===@.@.";

  (* --- AC3TW: Trent crashes before the decision ----------------------- *)
  Fmt.pr "--- AC3TW with a centralized trusted witness ---@.";
  let ids = S.identities 2 in
  let u1, ps1 = S.make_universe ~seed:606 ~chains:[ "btc"; "eth" ] ids () in
  U.run_until u1 100.0;
  let trent = Trent.create u1 ~name:"trent-outage" in
  (* Trent is DoS'd 10 virtual seconds in — after registration, before the
     contracts confirm. *)
  ignore
    (Ac3_sim.Engine.schedule (U.engine u1) ~delay:10.0 (fun () ->
         Fmt.pr "  [t=+10s] Trent goes down (denial of service)@.";
         Trent.crash trent));
  let graph1 = S.two_party_graph ~chain1:"btc" ~chain2:"eth" ids ~timestamp:(U.now u1) in
  (match
     T.execute u1
       ~config:{ T.default_config with T.timeout = 1500.0 }
       ~trent ~graph:graph1 ~participants:ps1 ()
   with
  | Error e -> Fmt.pr "  error: %s@." e
  | Ok r ->
      Fmt.pr "  outcome: %a@." Outcome.pp r.Run.outcome;
      let locked = List.mem Outcome.Published (Outcome.statuses r.Run.outcome) in
      if locked then
        Fmt.pr "  ==> assets are LOCKED: with Trent down, neither T(ms(D),RD) nor@.";
      if locked then Fmt.pr "      T(ms(D),RF) can ever be issued.@.");
  Fmt.pr "@.";

  (* --- AC3WN: a witness miner crashes at the same point ---------------- *)
  Fmt.pr "--- AC3WN with a permissionless witness network ---@.";
  let ids = S.identities 2 in
  let u2, ps2 = S.make_universe ~seed:607 ~chains:[ "btc"; "eth" ] ids () in
  U.run_until u2 100.0;
  let witness = U.chain u2 "witness" in
  ignore
    (Ac3_sim.Engine.schedule (U.engine u2) ~delay:10.0 (fun () ->
         Fmt.pr "  [t=+10s] witness miner %s crashes@." (Node.id witness.U.nodes.(1));
         Node.crash witness.U.nodes.(1)));
  let graph2 = S.two_party_graph ~chain1:"btc" ~chain2:"eth" ids ~timestamp:(U.now u2) in
  let config = { (A.default_config ~witness_chain:"witness") with A.decision_depth = 4 } in
  let r = A.execute u2 ~config ~graph:graph2 ~participants:ps2 () in
  Fmt.pr "  outcome: %a@." Outcome.pp r.Run.outcome;
  if r.Run.committed && r.Run.atomic then
    Fmt.pr "  ==> COMMITTED atomically: the remaining witness miners kept the@.";
  if r.Run.committed then
    Fmt.pr "      chain (and the decision) going. No single point of failure.@.";
  ignore (P.balance_on (List.hd ps2) "btc");
  if not r.Run.committed then exit 1
