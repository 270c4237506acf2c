(* The driver every protocol runs under: one per-edge contract lifecycle
   (paper Algorithm 1, AtomicSwapSC) whose redeem and refund are gated
   by the protocol's commitment scheme.

   A protocol module supplies its step function (what one participant
   does on one poll), its decision rule (when the run counts as settled)
   and its phase table; this module owns everything around them — the
   per-edge state, deploy and settle calls on the edge contracts, the
   first-occurrence trace with its hooks, the fee ledger, the staggered
   poll loops, the launch/finish lifecycle, the result, and the fold of
   a finished run into the universe's observability context. *)

module Engine = Ac3_sim.Engine
module Trace = Ac3_sim.Trace
module Metrics = Ac3_obs.Metrics
module Span = Ac3_obs.Span
module Keys = Ac3_crypto.Keys
module Ac2t = Ac3_contract.Ac2t
module Swap_template = Ac3_contract.Swap_template
open Ac3_chain

let src = Logs.Src.create "ac3.swap" ~doc:"Swap-run driver"

module Log = (val Logs.src_log src : Logs.LOG)

type tx_kind = Scw_deploy | Edge_deploy | Authorize | Redeem | Refund

type fee_entry = { payer : Keys.public; kind : tx_kind; fee : Amount.t }

type edge = {
  edge : Ac2t.edge;
  mutable deploy_txid : string option;
  mutable contract_id : string option;
  mutable redeem_txid : string option;
  mutable refund_txid : string option;
}

(* What only the driver touches: protocols see the rest of [t]. *)
type driver = {
  participants : Participant.t list;
  hooks : (string * (unit -> unit)) list;
  mutable fees : fee_entry list;
  mutable polling : bool;
}

type t = {
  universe : Universe.t;
  graph : Ac2t.t;
  edges : edge array;
  trace : Trace.t;
  start_time : float;
  driver : driver;
}

(* Record a trace label once; the first occurrence fires any hook bound to
   it (experiments use hooks to schedule crashes at protocol phases). *)
let record t ?attrs label =
  if Trace.time_of t.trace label = None then begin
    Trace.record t.trace ~time:(Universe.now t.universe) ?attrs label;
    match List.assoc_opt label t.driver.hooks with Some hook -> hook () | None -> ()
  end

let create universe ~graph ~participants ~hooks =
  match
    List.find_opt
      (fun pk -> not (List.exists (fun p -> String.equal (Participant.public p) pk) participants))
      (Ac2t.participants graph)
  with
  | Some pk ->
      Error (Printf.sprintf "no participant for graph vertex %s" (Ac3_crypto.Hex.short pk))
  | None ->
      let t =
        {
          universe;
          graph;
          edges =
            Array.of_list
              (List.map
                 (fun edge ->
                   {
                     edge;
                     deploy_txid = None;
                     contract_id = None;
                     redeem_txid = None;
                     refund_txid = None;
                   })
                 (Ac2t.edges graph));
          trace = Trace.create ();
          start_time = Universe.now universe;
          driver = { participants; hooks; fees = []; polling = true };
        }
      in
      record t "start";
      Ok t

let charge t ~payer ~kind ~fee = t.driver.fees <- { payer; kind; fee } :: t.driver.fees

(* --- Calls on the edge contracts ---------------------------------------- *)

let deploy t p es ~code_id ~args =
  let chain = es.edge.Ac2t.chain in
  match Wallet.deploy (Participant.wallet p chain) ~code_id ~args ~deposit:es.edge.Ac2t.amount with
  | Ok (txid, contract_id) ->
      es.deploy_txid <- Some txid;
      es.contract_id <- Some contract_id;
      charge t ~payer:(Participant.public p) ~kind:Edge_deploy
        ~fee:(Universe.params t.universe chain).Params.deploy_fee;
      true
  | Error e ->
      Log.debug (fun m -> m "%s: deploy on %s failed: %s" (Participant.name p) chain e);
      false

let published t es =
  match es.contract_id with
  | None -> None
  | Some cid -> (
      match Node.contract (Universe.gateway t.universe es.edge.Ac2t.chain) cid with
      | Some c as found when Swap_template.is_published c.Ledger.state -> found
      | _ -> None)

let settle t p es ~redeeming ~args =
  let chain = es.edge.Ac2t.chain in
  let fn = if redeeming then "redeem" else "refund" in
  match
    Wallet.call (Participant.wallet p chain) ~contract_id:(Option.get es.contract_id) ~fn ~args ()
  with
  | Ok txid ->
      if redeeming then es.redeem_txid <- Some txid else es.refund_txid <- Some txid;
      charge t ~payer:(Participant.public p)
        ~kind:(if redeeming then Redeem else Refund)
        ~fee:(Universe.params t.universe chain).Params.call_fee;
      true
  | Error e ->
      Log.debug (fun m -> m "%s: %s on %s failed: %s" (Participant.name p) fn chain e);
      false

(* --- Confirmation ------------------------------------------------------- *)

let deploy_confirmed t es =
  match es.deploy_txid with
  | None -> false
  | Some txid ->
      let node = Universe.gateway t.universe es.edge.Ac2t.chain in
      Node.confirmations node txid >= (Node.params node).Params.confirm_depth

let edge_settled t es =
  let node = Universe.gateway t.universe es.edge.Ac2t.chain in
  let depth = (Node.params node).Params.confirm_depth in
  let confirmed = function
    | Some txid -> Node.confirmations node txid >= depth
    | None -> false
  in
  confirmed es.redeem_txid || confirmed es.refund_txid

let all_settled t ~aborted =
  Array.for_all (fun es -> edge_settled t es || (es.deploy_txid = None && aborted)) t.edges

(* --- Lifecycle ------------------------------------------------------------ *)

(* One poll loop per participant, staggered so they do not act in
   lockstep; every loop stops once the run is concluded. *)
let poll t ~poll_interval step =
  let driver = t.driver in
  List.iteri
    (fun i p ->
      let _stop : unit -> unit =
        Engine.schedule_repeating
          ~while_:(fun () -> driver.polling)
          (Universe.engine t.universe)
          ~first:(poll_interval *. (1.0 +. (0.1 *. float_of_int i)))
          ~every:poll_interval
          (fun () -> step p)
      in
      ())
    driver.participants

type result = {
  graph : Ac2t.t;
  contracts : string option list;
  outcome : Outcome.t;
  atomic : bool;
  committed : bool;
  latency : float option;
  trace : Trace.t;
  fees : fee_entry list;
}

let conclude t ~finished =
  t.driver.polling <- false;
  if finished then record t "completed";
  let contracts = Array.to_list (Array.map (fun es -> es.contract_id) t.edges) in
  let outcome = Outcome.evaluate t.universe ~graph:t.graph ~contracts in
  {
    graph = t.graph;
    contracts;
    outcome;
    atomic = Outcome.atomic outcome;
    committed = Outcome.committed outcome;
    latency = (if finished then Some (Universe.now t.universe -. t.start_time) else None);
    trace = t.trace;
    fees = t.driver.fees;
  }

(* Fold a concluded run into the universe's observability context:
   submission counters, the run's completion counter, a root span and
   the phase spans derived from the trace the protocol already records
   (so tracing cannot perturb the run). [name] labels the protocol. *)
let observe t ~name ~phases ~finished =
  let m = Universe.metrics t.universe in
  let labels = [ ("protocol", name) ] in
  let count field =
    Array.fold_left (fun acc es -> if field es <> None then acc + 1 else acc) 0 t.edges
  in
  Metrics.add (Metrics.counter m ~labels "core.deploy.submitted") (count (fun es -> es.deploy_txid));
  Metrics.add (Metrics.counter m ~labels "core.redeem.submitted") (count (fun es -> es.redeem_txid));
  Metrics.add (Metrics.counter m ~labels "core.refund.submitted") (count (fun es -> es.refund_txid));
  Metrics.incr
    (Metrics.counter m ~labels (if finished then "core.run.completed" else "core.run.timed_out"));
  let spans = Universe.spans t.universe in
  let root =
    Span.add spans ~attrs:labels ~name ~start:t.start_time ~stop:(Universe.now t.universe) ()
  in
  Span.of_trace spans ~parent:root ~phases t.trace

type handle = {
  run : t;
  settled : unit -> bool;
  phases : Span.phase list;
  observe : finished:bool -> unit;
}

let start t ~poll_interval ~step ~settled ~phases ~observe =
  poll t ~poll_interval step;
  { run = t; settled; phases; observe }

let settled h = h.settled ()

let finish h =
  let finished = h.settled () in
  let result = conclude h.run ~finished in
  h.observe ~finished;
  result

let execute h ~timeout =
  let _finished : bool = Universe.run_while h.run.universe ~timeout h.settled in
  finish h

let phase_durations h =
  List.map
    (fun (phase, start, stop) -> (phase, stop -. start))
    (Span.windows ~phases:h.phases h.run.trace)

let total_fees (result : result) = Amount.sum (List.map (fun f -> f.fee) result.fees)
