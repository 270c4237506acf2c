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
   is what gives AC3WN its all-or-nothing guarantee. *)

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

type edge_state = {
  edge : Ac2t.edge;
  mutable deploy_txid : string option;
  mutable contract_id : string option;
  mutable redeem_txid : string option;
  mutable refund_txid : string option;
}

type tx_kind = Scw_deploy | Edge_deploy | Authorize | Redeem | Refund

type fee_entry = { payer : Keys.public; kind : tx_kind; fee : Amount.t }

type run = {
  universe : Universe.t;
  config : config;
  graph : Ac2t.t;
  ms : Ac3_crypto.Multisig.t;
  participants : (Keys.public * Participant.t) list;
  registrar : Keys.public;
  edges : edge_state array;
  trace : Trace.t;
  mutable scw_deploy_txid : string option;
  mutable scw_id : string option;
  mutable authorize_attempt_at : float; (* for resubmission *)
  mutable abort_requested : bool;
  (* Cached located decision call (fn, txid); invalidated if a reorg
     orphans it. Avoids rescanning the witness chain every poll. *)
  mutable decision : (string * string) option;
  mutable fees : fee_entry list;
  mutable hooks : (string * (unit -> unit)) list;
}

(* Record a trace label once; the first occurrence fires any hook bound to
   it (experiments use hooks to schedule crashes at protocol phases). *)
let record run ?attrs label =
  if Trace.time_of run.trace label = None then begin
    Trace.record run.trace ~time:(Universe.now run.universe) ?attrs label;
    match List.assoc_opt label run.hooks with
    | Some hook -> hook ()
    | None -> ()
  end

let charge run ~payer ~kind ~fee = run.fees <- { payer; kind; fee } :: run.fees

let witness_node run = Universe.gateway run.universe run.config.witness_chain

let obs_labels = [ ("protocol", "ac3wn") ]

(* Evidence bundles are where AC3WN pays its validation bill: each
   carries the header chain from the checkpoint to the proven
   transaction, and the contract walks all of it. Header count and wire
   bytes are the cost observables. Measuring the bytes re-encodes the
   whole bundle, so a disabled registry skips the observations (the
   instruments are still registered, as on every other path). *)
let observe_evidence run ev =
  let m = Universe.metrics run.universe in
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
    let checkpoints =
      List.map
        (fun chain -> (chain, Universe.stable_checkpoint run.universe chain))
        (Ac2t.chains run.graph)
    in
    let args =
      Witness_sc.args ~graph:run.graph ~ms:run.ms ~checkpoints
        ~evidence_depth:run.config.evidence_depth
    in
    let wallet = Participant.wallet p run.config.witness_chain in
    match
      Wallet.deploy wallet ~code_id:Witness_sc.code_id ~args ~deposit:Amount.zero
    with
    | Ok (txid, contract_id) ->
        run.scw_deploy_txid <- Some txid;
        charge run ~payer:(Participant.public p) ~kind:Scw_deploy
          ~fee:(Universe.params run.universe run.config.witness_chain).Params.deploy_fee;
        record run "scw_deployed" ~attrs:[ ("scw", Hex.short contract_id) ]
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
        record run "scw_confirmed"
      end
  | _ -> ()

(* Step 3/4: a participant deploys the contracts for its outgoing edges,
   in parallel, once SCw is confirmed. *)
let try_deploy_edges run p scw =
  let pk = Participant.public p in
  Array.iter
    (fun es ->
      if String.equal es.edge.Ac2t.from_pk pk && es.deploy_txid = None then begin
        let witness_checkpoint =
          Universe.stable_checkpoint run.universe run.config.witness_chain
        in
        let args =
          Permissionless_sc.args ~recipient_pk:es.edge.Ac2t.to_pk
            ~witness_chain:run.config.witness_chain ~scw ~depth:run.config.decision_depth
            ~witness_checkpoint
        in
        let wallet = Participant.wallet p es.edge.Ac2t.chain in
        match
          Wallet.deploy wallet ~code_id:Permissionless_sc.code_id ~args
            ~deposit:es.edge.Ac2t.amount
        with
        | Ok (txid, contract_id) ->
            es.deploy_txid <- Some txid;
            es.contract_id <- Some contract_id;
            charge run ~payer:pk ~kind:Edge_deploy
              ~fee:(Universe.params run.universe es.edge.Ac2t.chain).Params.deploy_fee;
            record run
              ("edge_deployed:" ^ es.edge.Ac2t.chain)
              ~attrs:[ ("contract", Hex.short contract_id) ]
        | Error e ->
            Log.debug (fun m ->
                m "%s: edge deploy on %s failed: %s" (Participant.name p) es.edge.Ac2t.chain e)
      end)
    run.edges

(* Are all edge deployments buried deeply enough for evidence? *)
let all_edges_evidenced run =
  Array.for_all
    (fun es ->
      match es.deploy_txid with
      | None -> false
      | Some txid ->
          (* Evidence burial counts blocks on top of the transaction's
             block; confirmations counts the block itself. *)
          let node = Universe.gateway run.universe es.edge.Ac2t.chain in
          Node.confirmations node txid > run.config.evidence_depth)
    run.edges

(* Step 5: submit the state-change request with evidence of every
   deployment. Any participant may do this; a few seconds of duplicate
   submissions are harmless (the second call is rejected by miners). *)
let try_authorize_redeem run p scw =
  let now = Universe.now run.universe in
  let witness_params = Universe.params run.universe run.config.witness_chain in
  let retry_after = 2.0 *. witness_params.Params.block_interval in
  let already_pending =
    run.authorize_attempt_at > 0.0 && now -. run.authorize_attempt_at < retry_after
  in
  if (not already_pending) && all_edges_evidenced run then begin
    match scw_state run with
    | None -> ()
    | Some state ->
        let evidences =
          Array.to_list run.edges
          |> List.map (fun es ->
                 match (es.deploy_txid, Witness_sc.checkpoint_for state es.edge.Ac2t.chain) with
                 | Some txid, Ok checkpoint ->
                     let store = Node.store (Universe.gateway run.universe es.edge.Ac2t.chain) in
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
              charge run ~payer:(Participant.public p) ~kind:Authorize
                ~fee:witness_params.Params.call_fee;
              record run "authorize_redeem_submitted"
          | Error e -> Log.debug (fun m -> m "authorize_redeem rejected: %s" e)
        end
  end

(* Abort path: request the refund authorization (only verifies SCw is
   still in P). *)
let try_authorize_refund run p scw =
  let witness_params = Universe.params run.universe run.config.witness_chain in
  let now = Universe.now run.universe in
  let retry_after = 2.0 *. witness_params.Params.block_interval in
  let already_pending =
    run.authorize_attempt_at > 0.0 && now -. run.authorize_attempt_at < retry_after
  in
  if not already_pending then begin
    let wallet = Participant.wallet p run.config.witness_chain in
    match Wallet.call wallet ~contract_id:scw ~fn:"authorize_refund" ~args:Value.Unit () with
    | Ok _txid ->
        run.authorize_attempt_at <- now;
        charge run ~payer:(Participant.public p) ~kind:Authorize ~fee:witness_params.Params.call_fee;
        record run "authorize_refund_submitted"
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
    (fun es ->
      let mine =
        if redeeming then String.equal es.edge.Ac2t.to_pk pk
        else String.equal es.edge.Ac2t.from_pk pk
      in
      let pending = if redeeming then es.redeem_txid = None else es.refund_txid = None in
      match es.contract_id with
      | Some cid when mine && pending -> (
          let node = Universe.gateway run.universe es.edge.Ac2t.chain in
          match Node.contract node cid with
          | Some c when Swap_template.is_published c.Ledger.state -> (
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
                  | Error e ->
                      Log.debug (fun m -> m "evidence for settlement failed: %s" e)
                  | Ok evidence -> (
                      observe_evidence run evidence;
                      let fn = if redeeming then "redeem" else "refund" in
                      let wallet = Participant.wallet p es.edge.Ac2t.chain in
                      match
                        Wallet.call wallet ~contract_id:cid ~fn
                          ~args:(Evidence.to_value evidence) ()
                      with
                      | Ok txid ->
                          if redeeming then es.redeem_txid <- Some txid
                          else es.refund_txid <- Some txid;
                          charge run ~payer:pk
                            ~kind:(if redeeming then Redeem else Refund)
                            ~fee:(Universe.params run.universe es.edge.Ac2t.chain).Params.call_fee;
                          record run
                            ((if redeeming then "redeem_submitted:" else "refund_submitted:")
                            ^ es.edge.Ac2t.chain)
                      | Error e ->
                          Log.debug (fun m -> m "settlement call rejected: %s" e))))
          | _ -> ())
      | _ -> ())
    run.edges

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
            record run ("decision_confirmed:" ^ fst decision);
            try_settle_edges run p decision
        | None -> ()))
  end

(* --- Completion ------------------------------------------------------- *)

let edge_settled run es =
  let node = Universe.gateway run.universe es.edge.Ac2t.chain in
  let depth = (Node.params node).Params.confirm_depth in
  let confirmed = function
    | Some txid -> Node.confirmations node txid >= depth
    | None -> false
  in
  confirmed es.redeem_txid || confirmed es.refund_txid

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
      Array.for_all
        (fun es -> edge_settled run es || (es.deploy_txid = None && aborted))
        run.edges

(* Fold the run into the universe's observability context. Phase spans
   and the witness-decision latency are derived from the trace the
   protocol already records, so enabling them cannot perturb a run. *)
let observe_run run ~start_time ~finished =
  let m = Universe.metrics run.universe in
  let count field =
    Array.fold_left (fun acc es -> if field es <> None then acc + 1 else acc) 0 run.edges
  in
  Metrics.add
    (Metrics.counter m ~labels:obs_labels "core.deploy.submitted")
    (count (fun es -> es.deploy_txid));
  Metrics.add
    (Metrics.counter m ~labels:obs_labels "core.redeem.submitted")
    (count (fun es -> es.redeem_txid));
  Metrics.add
    (Metrics.counter m ~labels:obs_labels "core.refund.submitted")
    (count (fun es -> es.refund_txid));
  Metrics.incr
    (Metrics.counter m ~labels:obs_labels
       (if finished then "core.run.completed" else "core.run.timed_out"));
  (* Witness-decision latency: first authorize submission to the decision
     call sitting at decision depth on the witness chain. *)
  let first_with prefix =
    List.find_opt
      (fun (r : Trace.record) -> String.starts_with ~prefix r.Trace.label)
      (Trace.records run.trace)
  in
  (match (first_with "authorize_", first_with "decision_confirmed:") with
  | Some a, Some d when d.Trace.time >= a.Trace.time ->
      Metrics.observe
        (Metrics.histogram m ~labels:obs_labels ~lo:0.0 ~hi:200.0 ~buckets:40
           "core.witness.decision_latency")
        (d.Trace.time -. a.Trace.time)
  | _ -> ());
  let spans = Universe.spans run.universe in
  let root =
    Span.add spans ~attrs:obs_labels ~name:"ac3wn" ~start:start_time
      ~stop:(Universe.now run.universe) ()
  in
  Span.of_trace spans ~parent:root
    ~phases:
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
    run.trace

(* --- Entry point -------------------------------------------------------- *)

type result = {
  graph : Ac2t.t;
  scw_id : string option;
  contracts : string option list;
  outcome : Outcome.t;
  atomic : bool;
  committed : bool;
  latency : float option; (* agreement to last confirmed settlement *)
  trace : Trace.t;
  fees : fee_entry list;
}

(* A launched AC2T: poll loops scheduled, engine not yet driven. See
   {!Herlihy.handle} — the load engine interleaves many of these on one
   shared universe. *)
type handle = {
  run : run;
  start_time : float;
  stopped : bool ref;
}

(* Launch an AC2T without running the engine. [participants] must cover
   the graph's vertices. [hooks] bind trace labels to callbacks (e.g.
   crash a participant the moment a phase starts). [abort_after]
   requests the refund path after that many virtual seconds if SCw is
   still undecided. *)
let launch universe ~config ~graph ~participants ?(hooks = []) ?abort_after ?(verify = false) () =
  let by_pk = List.map (fun p -> (Participant.public p, p)) participants in
  List.iter
    (fun pk ->
      if not (List.mem_assoc pk by_pk) then invalid_arg "Ac3wn.execute: missing participant")
    (Ac2t.participants graph);
  (if verify then
     let preflight =
       Ac3_verify.Diagnostic.errors (Ac3_verify.Verify.ac3wn_preflight ~graph)
       (* Timelock parameters are irrelevant to the witness protocol's
          product model; zero fault budget, as for Herlihy. *)
       @ Ac3_model.Checker.preflight_errors ~protocol:Ac3_model.Checker.Ac3wn ~graph
           ~delta:1.0 ~timelock_slack:0.0 ~start_time:0.0
     in
     if preflight <> [] then
       invalid_arg
         (Fmt.str "Ac3wn.execute: static verification failed:@.%s"
            (Ac3_verify.Verify.render preflight)));
  (* Phase 1: off-chain agreement — every participant signs (D, t). *)
  let ms = Ac2t.multisign graph (List.map Participant.identity participants) in
  let run =
    {
      universe;
      config;
      graph;
      ms;
      participants = by_pk;
      registrar = List.hd (Ac2t.participants graph);
      edges =
        Array.of_list
          (List.map
             (fun edge ->
               { edge; deploy_txid = None; contract_id = None; redeem_txid = None; refund_txid = None })
             (Ac2t.edges graph));
      trace = Trace.create ();
      scw_deploy_txid = None;
      scw_id = None;
      authorize_attempt_at = 0.0;
      abort_requested = false;
      decision = None;
      fees = [];
      hooks;
    }
  in
  record run "start";
  let start_time = Universe.now universe in
  (match abort_after with
  | Some delay ->
      ignore
        (Engine.schedule (Universe.engine universe) ~delay (fun () ->
             if scw_status run = `P || run.scw_id = None then begin
               run.abort_requested <- true;
               record run "abort_requested"
             end))
  | None -> ());
  (* Start one poll loop per participant, staggered so they do not act in
     lockstep. *)
  let stopped = ref false in
  List.iteri
    (fun i p ->
      let _stop : unit -> unit =
        Engine.schedule_repeating
          ~while_:(fun () -> not !stopped)
          (Universe.engine universe)
          ~first:(config.poll_interval *. (1.0 +. (0.1 *. float_of_int i)))
          ~every:config.poll_interval
          (fun () -> step run p)
      in
      ())
    participants;
  { run; start_time; stopped }

let settled h = all_settled h.run

let finish h =
  let run = h.run in
  h.stopped := true;
  let finished = all_settled run in
  if finished then record run "completed";
  observe_run run ~start_time:h.start_time ~finished;
  let contracts = Array.to_list (Array.map (fun es -> es.contract_id) run.edges) in
  let outcome = Outcome.evaluate run.universe ~graph:run.graph ~contracts in
  let latency =
    if finished then Some (Universe.now run.universe -. h.start_time) else None
  in
  {
    graph = run.graph;
    scw_id = run.scw_id;
    contracts;
    outcome;
    atomic = Outcome.atomic outcome;
    committed = Outcome.committed outcome;
    latency;
    trace = run.trace;
    fees = run.fees;
  }

(* Execute an AC2T end to end: {!launch}, drive the universe until the
   run settles (or the timeout), {!finish}. *)
let execute universe ~config ~graph ~participants ?hooks ?abort_after ?verify () =
  let h = launch universe ~config ~graph ~participants ?hooks ?abort_after ?verify () in
  let _finished : bool =
    Universe.run_while universe ~timeout:config.timeout (fun () -> settled h)
  in
  finish h

(* Total fees paid across the run. *)
let total_fees result = Amount.sum (List.map (fun f -> f.fee) result.fees)
