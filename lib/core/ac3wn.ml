(* AC3WN: the atomic cross-chain commitment protocol with a permissionless
   witness network (paper Sec 4.2).

   Protocol phases (Figure 9):
     1. a participant registers ms(D) in a witness smart contract SCw on
        the witness blockchain (state P);
     2. all participants deploy their per-edge contracts *in parallel* on
        the asset blockchains, conditioning redeem/refund on SCw;
     3. any participant submits a state-change request with evidence of
        all deployments; the witness miners verify and move SCw to
        RDauth — or, on abort, to RFauth;
     4. once the decision is buried under d blocks, participants redeem
        (or refund) their contracts in parallel with evidence of the
        decision.

   Every participant runs an independent poll loop against its own view
   of the chains; all coordination flows through the blockchains
   themselves (plus the initial off-chain agreement on the graph). Crashed
   participants simply stop polling — any other participant can still
   drive SCw, and a recovered participant resumes from chain state, which
   is what gives AC3WN its all-or-nothing guarantee.

   This module holds the protocol logic only: the per-participant step,
   the witness decision rule and the phase table. {!Swap_run} drives the
   run. *)

module Engine = Ac3_sim.Engine
module Trace = Ac3_sim.Trace
module Metrics = Ac3_obs.Metrics
module Span = Ac3_obs.Span
module Keys = Ac3_crypto.Keys
module Hex = Ac3_crypto.Hex
module Ac2t = Ac3_contract.Ac2t
module Witness_sc = Ac3_contract.Witness_sc
module Permissionless_sc = Ac3_contract.Permissionless_sc
module Evidence = Ac3_contract.Evidence
module Swap_template = Ac3_contract.Swap_template
open Ac3_chain

let src = Logs.Src.create "ac3.wn" ~doc:"AC3WN protocol"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  witness_chain : string;
  evidence_depth : int; (* burial required of deploy evidence *)
  decision_depth : int; (* d: burial required of the SCw decision *)
  poll_interval : float;
  timeout : float; (* give up running the simulation after this long *)
}

let default_config ~witness_chain =
  {
    witness_chain;
    evidence_depth = 2;
    decision_depth = 6;
    poll_interval = 2.0;
    timeout = 10_000.0;
  }

type run = {
  base : Swap_run.t;
  config : config;
  ms : Ac3_crypto.Multisig.t;
  registrar : Keys.public;
  mutable scw_deploy_txid : string option;
  mutable scw_id : string option;
  mutable authorize_attempt_at : float; (* for resubmission *)
  mutable abort_requested : bool;
  (* Cached located decision call (fn, txid); invalidated if a reorg
     orphans it. Avoids rescanning the witness chain every poll. *)
  mutable decision : (string * string) option;
}

let witness_node run = Universe.gateway run.base.universe run.config.witness_chain

let obs_labels = [ ("protocol", "ac3wn") ]

(* Evidence bundles are where AC3WN pays its validation bill: each
   carries the header chain from the checkpoint to the proven
   transaction, and the contract walks all of it. Header count and wire
   bytes are the cost observables. Measuring the bytes re-encodes the
   whole bundle, so a disabled registry skips the observations (the
   instruments are still registered, as on every other path). *)
let observe_evidence run ev =
  let m = Universe.metrics run.base.universe in
  Metrics.incr (Metrics.counter m ~labels:obs_labels "core.evidence.built");
  let headers =
    Metrics.histogram m ~labels:obs_labels ~lo:0.0 ~hi:100.0 ~buckets:20 "core.evidence.headers"
  in
  let bytes =
    Metrics.histogram m ~labels:obs_labels ~lo:0.0 ~hi:20_000.0 ~buckets:20 "core.evidence.bytes"
  in
  if Metrics.is_enabled m then begin
    Metrics.observe headers (float_of_int (List.length ev.Evidence.headers));
    Metrics.observe bytes (float_of_int (Evidence.size ev))
  end

let scw_state run =
  match run.scw_id with
  | None -> None
  | Some scw -> (
      match Node.contract (witness_node run) scw with
      | Some c -> Some c.Ledger.state
      | None -> None)

let scw_status run =
  match scw_state run with
  | None -> `Unknown
  | Some state ->
      if Witness_sc.state_is state Witness_sc.status_published then `P
      else if Witness_sc.state_is state Witness_sc.status_redeem_authorized then `RDauth
      else if Witness_sc.state_is state Witness_sc.status_refund_authorized then `RFauth
      else `Unknown

(* --- Individual protocol actions ------------------------------------- *)

(* Step 2 of the protocol summary: the registrar publishes SCw. *)
let try_register_scw run p =
  if run.scw_deploy_txid = None then begin
    let universe = run.base.universe in
    let checkpoints =
      List.map
        (fun chain -> (chain, Universe.stable_checkpoint universe chain))
        (Ac2t.chains run.base.graph)
    in
    let args =
      Witness_sc.args ~graph:run.base.graph ~ms:run.ms ~checkpoints
        ~evidence_depth:run.config.evidence_depth
    in
    let wallet = Participant.wallet p run.config.witness_chain in
    match
      Wallet.deploy wallet ~code_id:Witness_sc.code_id ~args ~deposit:Amount.zero
    with
    | Ok (txid, contract_id) ->
        run.scw_deploy_txid <- Some txid;
        Swap_run.charge run.base ~payer:(Participant.public p) ~kind:Scw_deploy
          ~fee:(Universe.params universe run.config.witness_chain).Params.deploy_fee;
        Swap_run.record run.base "scw_deployed" ~attrs:[ ("scw", Hex.short contract_id) ]
    | Error e -> Log.debug (fun m -> m "SCw registration failed: %s" e)
  end

(* Watch the SCw deployment until it is confirmed on the witness chain. *)
let observe_scw_confirmation run =
  match (run.scw_id, run.scw_deploy_txid) with
  | None, Some txid ->
      let node = witness_node run in
      let depth = (Node.params node).Params.confirm_depth in
      if Node.confirmations node txid >= depth then begin
        run.scw_id <- Some (Contract_iface.contract_id_of_deploy ~txid);
        Swap_run.record run.base "scw_confirmed"
      end
  | _ -> ()

(* Step 3/4: a participant deploys the contracts for its outgoing edges,
   in parallel, once SCw is confirmed. *)
let try_deploy_edges run p scw =
  let pk = Participant.public p in
  Array.iter
    (fun (es : Swap_run.edge) ->
      if String.equal es.edge.Ac2t.from_pk pk && es.deploy_txid = None then begin
        let witness_checkpoint =
          Universe.stable_checkpoint run.base.universe run.config.witness_chain
        in
        let args =
          Permissionless_sc.args ~recipient_pk:es.edge.Ac2t.to_pk
            ~witness_chain:run.config.witness_chain ~scw ~depth:run.config.decision_depth
            ~witness_checkpoint
        in
        if Swap_run.deploy run.base p es ~code_id:Permissionless_sc.code_id ~args then
          Swap_run.record run.base
            ("edge_deployed:" ^ es.edge.Ac2t.chain)
            ~attrs:[ ("contract", Hex.short (Option.get es.contract_id)) ]
      end)
    run.base.edges

(* Are all edge deployments buried deeply enough for evidence? *)
let all_edges_evidenced run =
  Array.for_all
    (fun (es : Swap_run.edge) ->
      match es.deploy_txid with
      | None -> false
      | Some txid ->
          (* Evidence burial counts blocks on top of the transaction's
             block; confirmations counts the block itself. *)
          let node = Universe.gateway run.base.universe es.edge.Ac2t.chain in
          Node.confirmations node txid > run.config.evidence_depth)
    run.base.edges

(* Step 5: submit the state-change request with evidence of every
   deployment. Any participant may do this; a few seconds of duplicate
   submissions are harmless (the second call is rejected by miners). *)
let try_authorize_redeem run p scw =
  let now = Universe.now run.base.universe in
  let witness_params = Universe.params run.base.universe run.config.witness_chain in
  let retry_after = 2.0 *. witness_params.Params.block_interval in
  let already_pending =
    run.authorize_attempt_at > 0.0 && now -. run.authorize_attempt_at < retry_after
  in
  if (not already_pending) && all_edges_evidenced run then begin
    match scw_state run with
    | None -> ()
    | Some state ->
        let evidences =
          Array.to_list run.base.edges
          |> List.map (fun (es : Swap_run.edge) ->
                 match (es.deploy_txid, Witness_sc.checkpoint_for state es.edge.Ac2t.chain) with
                 | Some txid, Ok checkpoint ->
                     let store =
                       Node.store (Universe.gateway run.base.universe es.edge.Ac2t.chain)
                     in
                     Evidence.build ~store ~checkpoint ~txid
                 | _ -> Error "deployment or checkpoint missing")
        in
        if List.for_all Result.is_ok evidences then begin
          List.iter (fun e -> observe_evidence run (Result.get_ok e)) evidences;
          let args = Value.List (List.map (fun e -> Evidence.to_value (Result.get_ok e)) evidences) in
          let wallet = Participant.wallet p run.config.witness_chain in
          match
            Wallet.call wallet ~contract_id:scw ~fn:"authorize_redeem" ~args ()
          with
          | Ok _txid ->
              run.authorize_attempt_at <- now;
              Swap_run.charge run.base ~payer:(Participant.public p) ~kind:Authorize
                ~fee:witness_params.Params.call_fee;
              Swap_run.record run.base "authorize_redeem_submitted"
          | Error e -> Log.debug (fun m -> m "authorize_redeem rejected: %s" e)
        end
  end

(* Abort path: request the refund authorization (only verifies SCw is
   still in P). *)
let try_authorize_refund run p scw =
  let witness_params = Universe.params run.base.universe run.config.witness_chain in
  let now = Universe.now run.base.universe in
  let retry_after = 2.0 *. witness_params.Params.block_interval in
  let already_pending =
    run.authorize_attempt_at > 0.0 && now -. run.authorize_attempt_at < retry_after
  in
  if not already_pending then begin
    let wallet = Participant.wallet p run.config.witness_chain in
    match Wallet.call wallet ~contract_id:scw ~fn:"authorize_refund" ~args:Value.Unit () with
    | Ok _txid ->
        run.authorize_attempt_at <- now;
        Swap_run.charge run.base ~payer:(Participant.public p) ~kind:Authorize
          ~fee:witness_params.Params.call_fee;
        Swap_run.record run.base "authorize_refund_submitted"
    | Error e -> Log.debug (fun m -> m "authorize_refund rejected: %s" e)
  end

(* The decision call on SCw, located once and cached; (fn, txid). *)
let locate_decision run scw =
  (match run.decision with
  | Some (_, txid) when Node.confirmations (witness_node run) txid = 0 ->
      (* A reorg orphaned the call we knew about. *)
      run.decision <- None
  | _ -> ());
  if run.decision = None then begin
    let store = Node.store (witness_node run) in
    let check fn =
      Option.map (fun (txid, _h) -> (fn, txid)) (Store.find_call store ~contract_id:scw ~fn)
    in
    run.decision <-
      (match check Permissionless_sc.authorize_redeem_fn with
      | Some d -> Some d
      | None -> check Permissionless_sc.authorize_refund_fn)
  end;
  run.decision

(* The decision, once buried at depth d (the commit/abort point of the
   protocol). *)
let confirmed_decision run scw =
  match locate_decision run scw with
  | Some (fn, txid) when Node.confirmations (witness_node run) txid > run.config.decision_depth
    ->
      Some (fn, txid)
  | _ -> None

(* Step 5/6 completion: settle own edges once the decision is buried at
   depth d. Recipients redeem incoming edges; senders refund outgoing
   ones. *)
let try_settle_edges run p (decision_fn, decision_txid) =
  let pk = Participant.public p in
  let witness_store = Node.store (witness_node run) in
  let redeeming = String.equal decision_fn Permissionless_sc.authorize_redeem_fn in
  Array.iter
    (fun (es : Swap_run.edge) ->
      let mine =
        if redeeming then String.equal es.edge.Ac2t.to_pk pk
        else String.equal es.edge.Ac2t.from_pk pk
      in
      let pending = if redeeming then es.redeem_txid = None else es.refund_txid = None in
      if mine && pending then
      match Swap_run.published run.base es with
      | None -> ()
      | Some c -> (
          (* The deployed contract recorded which witness checkpoint
             its evidence must extend. *)
          let checkpoint =
            match
              Result.bind (Swap_template.get_commitment c.Ledger.state) (fun commitment ->
                  Result.bind (Value.field commitment "witness_checkpoint") Value.as_bytes)
            with
            | Ok bytes -> Some (Ac3_crypto.Codec.decode Block.decode_header bytes)
            | Error _ -> None
          in
          match checkpoint with
          | None -> ()
          | Some checkpoint -> (
              match Evidence.build ~store:witness_store ~checkpoint ~txid:decision_txid with
              | Error e -> Log.debug (fun m -> m "evidence for settlement failed: %s" e)
              | Ok evidence ->
                  observe_evidence run evidence;
                  if Swap_run.settle run.base p es ~redeeming ~args:(Evidence.to_value evidence)
                  then
                    Swap_run.record run.base
                      ((if redeeming then "redeem_submitted:" else "refund_submitted:")
                      ^ es.edge.Ac2t.chain))))
    run.base.edges

(* One poll step for one participant. *)
let step run p =
  if not (Participant.is_crashed p) then begin
    observe_scw_confirmation run;
    (match run.scw_id with
    | None ->
        if String.equal (Participant.public p) run.registrar then try_register_scw run p
    | Some scw -> (
        (match scw_status run with
        | `P ->
            try_deploy_edges run p scw;
            if run.abort_requested then try_authorize_refund run p scw
            else try_authorize_redeem run p scw
        | `RDauth | `RFauth | `Unknown -> ());
        match confirmed_decision run scw with
        | Some decision ->
            Swap_run.record run.base ("decision_confirmed:" ^ fst decision);
            try_settle_edges run p decision
        | None -> ()))
  end

(* --- Completion ------------------------------------------------------- *)

(* The run is complete when every edge is settled: a confirmed redeem or
   refund, or — for edges whose contract was never published — a
   confirmed abort decision. *)
let all_settled run =
  match run.scw_id with
  | None -> false
  | Some scw ->
      let aborted =
        match confirmed_decision run scw with
        | Some (fn, _) -> String.equal fn Permissionless_sc.authorize_refund_fn
        | None -> false
      in
      Swap_run.all_settled run.base ~aborted

let phases =
  [
    { Span.phase = "scw_deploy"; opens = "scw_deployed"; closes = [ "scw_confirmed" ] };
    { Span.phase = "edge_deploy"; opens = "edge_deployed:"; closes = [ "edge_deployed:" ] };
    { Span.phase = "decision"; opens = "authorize_"; closes = [ "decision_confirmed:" ] };
    {
      Span.phase = "settle";
      opens = "decision_confirmed:";
      closes = [ "redeem_submitted:"; "refund_submitted:" ];
    };
  ]

(* The shared fold plus the witness-decision latency: first authorize
   submission to the decision call sitting at decision depth on the
   witness chain, from the trace the protocol already records. *)
let observe_run run ~finished =
  Swap_run.observe run.base ~name:"ac3wn" ~phases ~finished;
  let first_with prefix =
    List.find_opt
      (fun (r : Trace.record) -> String.starts_with ~prefix r.Trace.label)
      (Trace.records run.base.trace)
  in
  match (first_with "authorize_", first_with "decision_confirmed:") with
  | Some a, Some d when d.Trace.time >= a.Trace.time ->
      Metrics.observe
        (Metrics.histogram (Universe.metrics run.base.universe) ~labels:obs_labels ~lo:0.0
           ~hi:200.0 ~buckets:40 "core.witness.decision_latency")
        (d.Trace.time -. a.Trace.time)
  | _ -> ()

(* --- Entry point -------------------------------------------------------- *)

type handle = Swap_run.handle

(* Launch an AC2T without running the engine. [participants] must cover
   the graph's vertices. [hooks] bind trace labels to callbacks (e.g.
   crash a participant the moment a phase starts). [abort_after]
   requests the refund path after that many virtual seconds if SCw is
   still undecided. *)
let launch universe ~config ~graph ~participants ?(hooks = []) ?abort_after () =
  match Swap_run.create universe ~graph ~participants ~hooks with
  | Error e -> invalid_arg ("Ac3wn.launch: " ^ e)
  | Ok base ->
      (* Phase 1: off-chain agreement — every participant signs (D, t). *)
      let ms = Ac2t.multisign graph (List.map Participant.identity participants) in
      let run =
        {
          base;
          config;
          ms;
          registrar = List.hd (Ac2t.participants graph);
          scw_deploy_txid = None;
          scw_id = None;
          authorize_attempt_at = 0.0;
          abort_requested = false;
          decision = None;
        }
      in
      Option.iter
        (fun delay ->
          Engine.schedule (Universe.engine universe) ~delay (fun () ->
              if scw_status run = `P || run.scw_id = None then begin
                run.abort_requested <- true;
                Swap_run.record base "abort_requested"
              end))
        abort_after;
      Swap_run.start base ~poll_interval:config.poll_interval ~step:(step run)
        ~settled:(fun () -> all_settled run)
        ~phases ~observe:(observe_run run)

(* Execute an AC2T end to end: {!launch}, drive the universe until the
   run settles (or the timeout), {!Swap_run.finish}. *)
let execute universe ~config ~graph ~participants ?hooks ?abort_after () =
  Swap_run.execute
    (launch universe ~config ~graph ~participants ?hooks ?abort_after ())
    ~timeout:config.timeout
