(** AC3WN: the atomic cross-chain commitment protocol with a
    permissionless witness network (paper Sec 4.2).

    [execute] runs a complete AC2T: off-chain multisignature on the
    graph, SCw registration on the witness chain, parallel deployment of
    the per-edge contracts, the evidence-backed state change, and
    parallel redemption — or the refund path on abort. Every participant
    acts through an independent poll loop over its own chain views;
    crashed participants simply stop polling and can resume later. *)

module Ac2t = Ac3_contract.Ac2t

type config = {
  witness_chain : string;
  evidence_depth : int;  (** burial required of deployment evidence *)
  decision_depth : int;  (** d: burial required of the SCw decision *)
  poll_interval : float;
  timeout : float;  (** horizon for the simulation run *)
}

val default_config : witness_chain:string -> config

(** The phase table: phase spans and load-report phases are the windows
    of these label prefixes in a run's trace. *)
val phases : Ac3_obs.Span.phase list

(** A launched AC2T; drive the universe and {!Swap_run.finish} it. *)
type handle = Swap_run.handle

(** Set up an AC2T and schedule its poll loops without running the
    engine. Same contract as {!execute} up to the point where time would
    start moving: [participants] must cover the graph's vertices
    ([Invalid_argument] otherwise), [hooks] bind trace labels to
    callbacks, [abort_after] requests the refund path after that many
    virtual seconds if SCw is still undecided, and [~verify:true] raises
    [Invalid_argument] on a static verification failure before anything
    touches a chain. *)
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
  Swap_run.result
