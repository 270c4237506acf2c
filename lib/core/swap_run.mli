(** The swap-run driver shared by {!Herlihy} (and so {!Nolan}),
    {!Ac3tw} and {!Ac3wn}: one per-edge contract lifecycle (paper
    Algorithm 1) whose redeem and refund are gated by the protocol's
    commitment scheme.

    A protocol supplies its step function, its decision rule (when the
    run is settled) and its phase table. The driver owns the per-edge
    state, the deploy and settle calls on edge contracts, the
    first-occurrence trace and its hooks, the fee ledger, the staggered
    poll loops, launch/finish, the result, and the observability fold. *)

module Keys = Ac3_crypto.Keys
module Ac2t = Ac3_contract.Ac2t
open Ac3_chain

type tx_kind = Scw_deploy | Edge_deploy | Authorize | Redeem | Refund

type fee_entry = { payer : Keys.public; kind : tx_kind; fee : Amount.t }

(** One edge's contract, as far as this run has driven it. *)
type edge = {
  edge : Ac2t.edge;
  mutable deploy_txid : string option;
  mutable contract_id : string option;
  mutable redeem_txid : string option;
  mutable refund_txid : string option;
}

(** The participants, label hooks, fee ledger and poll-loop flag, which
    only the driver reads or changes. *)
type driver

type t = {
  universe : Universe.t;
  graph : Ac2t.t;
  edges : edge array;  (** graph order *)
  trace : Ac3_sim.Trace.t;
  start_time : float;
  driver : driver;
}

(** A fresh run over [graph], with ["start"] recorded. [Error] if a
    vertex of the graph has no participant to act for it. *)
val create :
  Universe.t ->
  graph:Ac2t.t ->
  participants:Participant.t list ->
  hooks:(string * (unit -> unit)) list ->
  (t, string) Stdlib.result

(** Record a trace label at the current time unless already recorded;
    the first occurrence fires the hook bound to the label, if any. *)
val record : t -> ?attrs:(string * string) list -> string -> unit

val charge : t -> payer:Keys.public -> kind:tx_kind -> fee:Amount.t -> unit

(** The edge's sender deploys its contract with the edge's amount as
    deposit. On acceptance the edge's deploy txid and contract id are
    set and the deploy fee is charged ([Edge_deploy]); returns whether
    the chain accepted it. *)
val deploy : t -> Participant.t -> edge -> code_id:string -> args:Value.t -> bool

(** The edge's contract on its chain's gateway, if it is still published
    (neither redeemed nor refunded). *)
val published : t -> edge -> Ledger.contract option

(** Call [redeem] (or [refund]) with [args] on the edge's deployed
    contract. On acceptance the matching txid is set and the call fee
    charged; returns whether the chain accepted it. *)
val settle : t -> Participant.t -> edge -> redeeming:bool -> args:Value.t -> bool

(** The edge's deployment is confirmed at its chain's depth. *)
val deploy_confirmed : t -> edge -> bool

(** Every edge has a redeem or refund confirmed at its chain's depth —
    or, when [aborted], was never deployed. Nothing detects a run that
    can never settle (an unsettled contract past its timelock whose
    sender crashed): such a run ends only at the caller's timeout. *)
val all_settled : t -> aborted:bool -> bool

type result = {
  graph : Ac2t.t;
  contracts : string option list;  (** per-edge contract ids, graph order *)
  outcome : Outcome.t;
  atomic : bool;
  committed : bool;
  latency : float option;  (** start to settled, virtual seconds *)
  trace : Ac3_sim.Trace.t;
  fees : fee_entry list;  (** newest first *)
}

(** Fold a concluded run into the universe's observability context:
    [core.{deploy,redeem,refund}.submitted], [core.run.completed] or
    [core.run.timed_out], a root span named [name] and the phase spans
    of [phases] under it, all labelled [protocol=name]. *)
val observe : t -> name:string -> phases:Ac3_obs.Span.phase list -> finished:bool -> unit

(** A run whose poll loops are scheduled on the universe's engine. The
    caller drives the engine (alone or interleaved with other swaps on
    the same universe) and calls {!finish} exactly once. *)
type handle

(** Schedule one poll loop per participant calling [step] every
    [poll_interval], staggered by 10% of the interval per participant,
    and wrap the run with its decision rule [settled], its phase table
    and its [observe] fold. The loops stop when the run is finished. *)
val start :
  t ->
  poll_interval:float ->
  step:(Participant.t -> unit) ->
  settled:(unit -> bool) ->
  phases:Ac3_obs.Span.phase list ->
  observe:(finished:bool -> unit) ->
  handle

val settled : handle -> bool

(** Conclude the run, whether it settled or a deadline expired with it
    in flight: stop the poll loops, record ["completed"] if it settled,
    evaluate the outcome, then run the protocol's observability fold. *)
val finish : handle -> result

(** Drive the universe until the run settles or [timeout] passes, then
    {!finish}. *)
val execute : handle -> timeout:float -> result

(** Duration of each phase of the run's phase table found in its trace. *)
val phase_durations : handle -> (string * float) list

val total_fees : result -> Amount.t
