(* Supply-chain settlements (Sec 5.3, Figure 7b).

   Two scenarios the paper motivates:

     1. a supply-chain DAG — a buyer pays a manufacturer, who pays a
        supplier and a carrier, while the supplier ships title to the
        buyer — all atomically across four ledgers;
     2. a *disconnected* AC2T: two unrelated swaps that the parties
        insist settle as one atomic unit (e.g. the same trading desks
        rebalancing two books). Single-leader protocols cannot execute a
        disconnected graph at all; AC3WN commits it like any other.

     dune exec examples/supply_chain.exe *)

module U = Ac3_core.Universe
module S = Ac3_core.Scenarios
module A = Ac3_core.Ac3wn
module H = Ac3_core.Herlihy
module Run = Ac3_core.Swap_run
module Ac2t = Ac3_contract.Ac2t

let run_case ~name ~seed ~chains ~graph_of n =
  Fmt.pr "--- %s ---@." name;
  let ids = S.identities n in
  let universe, participants = S.make_universe ~seed ~chains ids () in
  U.run_until universe 100.0;
  let graph = graph_of ids (U.now universe) in
  Fmt.pr "Graph: %a@." Ac2t.pp graph;
  Fmt.pr "Shape: %a (connected = %b, cyclic = %b)@." Ac2t.pp_shape (Ac2t.classify graph)
    (Ac2t.is_connected graph) (Ac2t.is_cyclic graph);
  (* Show what the baseline says about this graph. *)
  let hconfig = H.default_config ~delta:(U.max_delta universe) in
  (match H.execute universe ~config:hconfig ~graph ~participants () with
  | Error e -> Fmt.pr "Herlihy baseline: REFUSED — %s@." e
  | Ok _ -> Fmt.pr "Herlihy baseline: executable@.");
  let config =
    { (A.default_config ~witness_chain:"witness") with A.decision_depth = 4; timeout = 20_000.0 }
  in
  let result = A.execute universe ~config ~graph ~participants () in
  Fmt.pr "AC3WN: committed = %b, atomic = %b%a@.@." result.Run.committed result.Run.atomic
    (fun ppf -> function
      | Some l -> Fmt.pf ppf ", latency = %.1f s" l
      | None -> ())
    result.Run.latency;
  result.Run.committed && result.Run.atomic

let () =
  Fmt.pr "=== Atomic supply-chain settlements with AC3WN ===@.@.";
  let ok1 =
    run_case ~name:"Supply-chain DAG (buyer, manufacturer, supplier, carrier)" ~seed:77
      ~chains:[ "payments"; "titles"; "freight" ]
      ~graph_of:(fun ids ts -> S.supply_chain_graph ~chains:[ "payments"; "titles"; "freight" ] ids ~timestamp:ts)
      4
  in
  let ok2 =
    run_case ~name:"Disconnected AC2T (Figure 7b): two swaps, one atomic commit" ~seed:78
      ~chains:[ "c1"; "c2"; "c3"; "c4" ]
      ~graph_of:(fun ids ts -> S.disconnected_graph ~chains:[ "c1"; "c2"; "c3"; "c4" ] ids ~timestamp:ts)
      4
  in
  if not (ok1 && ok2) then exit 1
