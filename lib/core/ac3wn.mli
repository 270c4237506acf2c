(** AC3WN: the atomic cross-chain commitment protocol with a
    permissionless witness network (paper Sec 4.2).

    [execute] runs a complete AC2T: off-chain multisignature on the
    graph, SCw registration on the witness chain, parallel deployment of
    the per-edge contracts, the evidence-backed state change, and
    parallel redemption — or the refund path on abort. Every participant
    acts through an independent poll loop over its own chain views;
    crashed participants simply stop polling and can resume later. *)

module Keys = Ac3_crypto.Keys
module Ac2t = Ac3_contract.Ac2t
open Ac3_chain

type config = {
  witness_chain : string;
  evidence_depth : int;  (** burial required of deployment evidence *)
  decision_depth : int;  (** d: burial required of the SCw decision *)
  poll_interval : float;
  timeout : float;  (** horizon for the simulation run *)
}

val default_config : witness_chain:string -> config

type tx_kind = Scw_deploy | Edge_deploy | Authorize | Redeem | Refund

type fee_entry = { payer : Keys.public; kind : tx_kind; fee : Amount.t }

type result = {
  graph : Ac2t.t;
  scw_id : string option;  (** the witness contract, once confirmed *)
  contracts : string option list;  (** per-edge contract ids, graph order *)
  outcome : Outcome.t;
  atomic : bool;
  committed : bool;
  latency : float option;
      (** agreement to last confirmed settlement, in virtual seconds *)
  trace : Ac3_sim.Trace.t;
  fees : fee_entry list;
}

(** A launched AC2T whose poll loops are scheduled on the universe's
    engine; the caller drives time (alone or interleaved with other
    concurrent swaps) and calls {!finish} exactly once. *)
type handle

(** Set up an AC2T and schedule its poll loops without running the
    engine. Same contract as {!execute} up to the point where time would
    start moving: [participants] must cover the graph's vertices,
    [hooks] bind trace labels to callbacks, [abort_after] requests the
    refund path after that many virtual seconds if SCw is still
    undecided, and [~verify:true] raises [Invalid_argument] on a static
    verification failure before anything touches a chain. *)
val launch :
  Universe.t ->
  config:config ->
  graph:Ac2t.t ->
  participants:Participant.t list ->
  ?hooks:(string * (unit -> unit)) list ->
  ?abort_after:float ->
  ?verify:bool ->
  unit ->
  handle

(** Every edge settled to confirmation depth (or covered by a confirmed
    abort decision). *)
val settled : handle -> bool

(** Stop the poll loops, fold observability into the universe, evaluate
    the outcome. Call exactly once. *)
val finish : handle -> result

(** Execute an AC2T end to end. [participants] must cover the graph's
    vertices. [hooks] bind trace labels (e.g. ["scw_confirmed"],
    ["authorize_redeem_submitted"]) to callbacks, letting experiments
    crash participants at precise protocol phases. [abort_after]
    requests the refund path after that many virtual seconds if SCw is
    still undecided. With [~verify:true] the static graph lints
    ({!Ac3_verify.Verify.ac3wn_preflight}) run first; any error raises
    [Invalid_argument] before anything touches a chain. *)
val execute :
  Universe.t ->
  config:config ->
  graph:Ac2t.t ->
  participants:Participant.t list ->
  ?hooks:(string * (unit -> unit)) list ->
  ?abort_after:float ->
  ?verify:bool ->
  unit ->
  result

(** Sum of all fees paid during the run. *)
val total_fees : result -> Amount.t
