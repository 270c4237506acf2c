(** Static timelock-order analysis for the single-leader protocols
    (pass 2 of the verifier).

    [assign] computes, without running the simulator, the timelock
    schedule Herlihy's driver uses ({!Ac3_contract.Htlc.timelock_schedule}):
    an edge whose source sits at BFS depth [d] from the leader expires
    at [start + delta * (2*Diam(D) - d + slack)].

    [check] then verifies the ordering invariant statically. The model:
    all contracts are published by [T_pub = start + delta * Diam(D)]
    (one publish-and-recognize unit per deployment round); the leader
    then reveals the secret by redeeming, and knowledge of the secret
    propagates backwards — a participant learns it from the first
    redemption of one of its outgoing contracts, each hop costing one
    [delta]. Every contract's timelock must strictly exceed the moment
    its redeemer both knows the secret and has had [delta] to publish
    the redemption; otherwise the sender's refund races the redemption
    and the Sec 3 atomicity violation becomes reachable.

    Rules:
    - [T000-not-executable]    (error) no assignment exists (the graph is
      not single-leader executable); see also G005/G006.
    - [T001-secret-unreachable] (error) a non-leader participant has
      incoming contracts but no directed path to the leader, so no
      redemption can ever teach it the secret: its incoming contracts
      expire and refund while the rest of the graph redeems.
    - [T002-timelock-order]    (error) a contract expires before its
      redeemer can have redeemed it; the diagnostic carries the
      counterexample propagation path and the two clashing times.
    - [T003-min-slack]         (info) the tightest margin, in [delta]
      units, over all edges.
    - [T004-bad-delta]         (error) [delta <= 0]. *)

module Ac2t = Ac3_contract.Ac2t

type assignment = {
  edge : Ac2t.edge;
  depth : int;  (** BFS depth of the edge's source from the leader *)
  expiry : float;  (** absolute timelock *)
}

(** The assignment Herlihy's protocol would use, in graph edge order.
    [Error] if the graph is not single-leader executable. *)
val assign :
  graph:Ac2t.t ->
  delta:float ->
  timelock_slack:float ->
  start_time:float ->
  (assignment list, string) result

(** Check the ordering invariant of an arbitrary assignment (not
    necessarily [assign]'s) against the propagation model. *)
val check : graph:Ac2t.t -> delta:float -> start_time:float -> assignment list -> Diagnostic.t list

(** [assign] followed by [check]; assignment failures become
    [T000-not-executable]. *)
val verify :
  graph:Ac2t.t ->
  delta:float ->
  timelock_slack:float ->
  start_time:float ->
  Diagnostic.t list
