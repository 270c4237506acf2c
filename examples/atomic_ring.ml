(* Multi-party ring swap (Figure 7a territory).

   Five parties on five different blockchains, each paying the next
   around a ring — the kind of cyclic AC2T a single-leader
   hashlock/timelock protocol cannot execute safely, but which AC3WN
   commits in constant time because every contract is deployed and
   redeemed in parallel.

     dune exec examples/atomic_ring.exe *)

module U = Ac3_core.Universe
module S = Ac3_core.Scenarios
module A = Ac3_core.Ac3wn
module Run = Ac3_core.Swap_run
module Ac2t = Ac3_contract.Ac2t

let () =
  let n = 5 in
  Fmt.pr "=== %d-party atomic ring swap across %d blockchains ===@.@." n n;
  let ids = S.identities n in
  let chains = List.init n (fun i -> Printf.sprintf "chain%d" i) in
  let universe, participants = S.make_universe ~seed:31337 ~chains ids () in
  U.run_until universe 100.0;
  let graph = S.ring_graph ~chains ids ~timestamp:(U.now universe) in
  Fmt.pr "Graph: %a@." Ac2t.pp graph;
  Fmt.pr "Diam(D) = %d, shape = %a@.@." (Ac2t.diameter graph) Ac2t.pp_shape (Ac2t.classify graph);

  (* For comparison: what would the Herlihy baseline cost in time? The
     ring is single-leader executable, but needs Diam(D) sequential
     rounds in each phase. *)
  let delta = U.max_delta universe in
  Fmt.pr "Analysis (Sec 6.1): Herlihy needs 2*Diam(D) = %.0f Δ = %.0f s;@."
    (Ac3_core.Analysis.herlihy_latency ~diam:(Ac2t.diameter graph))
    (Ac3_core.Analysis.herlihy_latency ~diam:(Ac2t.diameter graph) *. delta);
  Fmt.pr "                    AC3WN needs a constant 4 Δ = %.0f s.@.@."
    (Ac3_core.Analysis.ac3wn_latency *. delta);

  let config =
    { (A.default_config ~witness_chain:"witness") with A.decision_depth = 4; timeout = 20_000.0 }
  in
  let result = A.execute universe ~config ~graph ~participants () in
  Fmt.pr "AC3WN result: committed = %b, atomic = %b@." result.Run.committed result.Run.atomic;
  (match result.Run.latency with
  | Some l -> Fmt.pr "measured latency: %.1f s = %.2f Δ (constant, despite %d parties)@." l (l /. delta) n
  | None -> Fmt.pr "did not complete@.");
  Fmt.pr "@.Edge outcomes:@.%a@." Ac3_core.Outcome.pp result.Run.outcome;
  if not result.Run.committed then exit 1
