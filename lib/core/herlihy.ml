(* The single-leader atomic cross-chain swap protocol of Herlihy (2018),
   generalizing Nolan's two-party swap — the baseline AC3WN is evaluated
   against (paper Sec 6, Figures 8 and 10).

   The leader creates a secret s and hashlock h = H(s). Contracts are
   HTLCs locked under h, deployed *sequentially* along the paths from the
   leader: a participant only publishes its outgoing contracts after all
   of its incoming contracts are confirmed (otherwise a counterparty
   could take its asset without reciprocation). Once every contract is
   published, the leader redeems its incoming contracts, revealing s on
   chain; the secret then propagates backwards as each participant
   extracts it from the redeem transactions of its outgoing contracts and
   uses it to redeem its incoming ones. Timelocks decrease with distance
   from the leader so an honest participant always has time to redeem —
   *if it is alive*. A crash that outlasts a timelock breaks atomicity
   (Sec 1), which experiment E8 reproduces.

   Deployment takes Diam(D) sequential rounds and redemption another
   Diam(D), giving the 2·Δ·Diam(D) latency of Figure 8.

   This module holds the protocol logic only: the per-participant step,
   the timelock rule and the phase table. {!Swap_run} drives the run. *)

module Span = Ac3_obs.Span
module Keys = Ac3_crypto.Keys
module Sha256 = Ac3_crypto.Sha256
module Ac2t = Ac3_contract.Ac2t
module Htlc = Ac3_contract.Htlc
open Ac3_chain

type config = {
  delta : float; (* Δ: the timelock unit (publish + public recognition) *)
  timelock_slack : float; (* extra Δs of margin on every timelock *)
  poll_interval : float;
  timeout : float;
}

let default_config ~delta =
  { delta; timelock_slack = 2.0; poll_interval = 2.0; timeout = 10_000.0 }

type run = {
  base : Swap_run.t;
  leader : Keys.public;
  secret : string;
  hashlock : string;
  timelocks : float array; (* per edge, graph order *)
  (* Which participants currently know the secret (leader from the start;
     others learn it from on-chain redeem transactions). *)
  mutable knows_secret : Keys.public list;
}

(* BFS rounds: distance of each vertex from the leader over directed
   edges. Edges from unreachable vertices make the graph inexecutable by
   a single-leader protocol (Sec 5.3). *)
let rounds_from_leader graph leader =
  let vertices = Ac2t.participants graph in
  let dist = Hashtbl.create 8 in
  Hashtbl.replace dist leader 0;
  let q = Queue.create () in
  Queue.push leader q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    let du = Hashtbl.find dist u in
    List.iter
      (fun (e : Ac2t.edge) ->
        if String.equal e.Ac2t.from_pk u && not (Hashtbl.mem dist e.Ac2t.to_pk) then begin
          Hashtbl.replace dist e.Ac2t.to_pk (du + 1);
          Queue.push e.Ac2t.to_pk q
        end)
      (Ac2t.edges graph)
  done;
  if List.exists (fun v -> not (Hashtbl.mem dist v)) vertices then
    Error "graph not executable by a single-leader protocol (unreachable participant)"
  else Ok (fun pk -> Hashtbl.find dist pk)

(* --- Per-participant actions ------------------------------------------- *)

(* A participant may publish its outgoing contracts once every contract
   it receives on is safely confirmed (the leader starts unconditionally:
   round 0). *)
let try_deploy run p =
  let pk = Participant.public p in
  let base = run.base in
  let may_deploy =
    String.equal pk run.leader
    || Array.for_all
         (fun (es : Swap_run.edge) ->
           (not (String.equal es.edge.Ac2t.to_pk pk)) || Swap_run.deploy_confirmed base es)
         base.edges
  in
  if may_deploy then
    Array.iteri
      (fun i (es : Swap_run.edge) ->
        if String.equal es.edge.Ac2t.from_pk pk && es.deploy_txid = None then begin
          (* A non-leader uses the hashlock it observed in its incoming
             contracts; in this implementation that equals [run.hashlock]
             once any incoming contract exists. *)
          let args =
            Htlc.args ~recipient_pk:es.edge.Ac2t.to_pk ~hashlock:run.hashlock
              ~timelock:run.timelocks.(i)
          in
          if Swap_run.deploy base p es ~code_id:Htlc.code_id ~args then
            Swap_run.record base (Printf.sprintf "deploy:%d" i)
              ~attrs:[ ("chain", es.edge.Ac2t.chain) ]
        end)
      base.edges

(* Scan the redeem calls of the participant's outgoing contracts for the
   revealed secret. *)
let learn_secret run p =
  let pk = Participant.public p in
  if not (List.mem pk run.knows_secret) then begin
    let learned =
      Array.exists
        (fun (es : Swap_run.edge) ->
          String.equal es.edge.Ac2t.from_pk pk
          &&
          match es.contract_id with
          | None -> false
          | Some cid ->
              let store = Node.store (Universe.gateway run.base.universe es.edge.Ac2t.chain) in
              List.exists
                (fun (_txid, fn, args) ->
                  String.equal fn "redeem"
                  &&
                  match args with
                  | Value.Bytes s -> String.equal (Sha256.digest s) run.hashlock
                  | _ -> false)
                (Store.calls_on store ~contract_id:cid))
        run.base.edges
    in
    if learned then begin
      run.knows_secret <- pk :: run.knows_secret;
      Swap_run.record run.base ("learned_secret:" ^ Ac3_crypto.Hex.short ~n:6 pk)
    end
  end

(* Redeem incoming contracts once the secret is known. The leader only
   starts after observing that the entire graph is published (revealing s
   earlier would let early recipients cash out while later contracts are
   missing). *)
let try_redeem run p =
  let pk = Participant.public p in
  let base = run.base in
  let knows = List.mem pk run.knows_secret in
  let leader_may_start =
    (not (String.equal pk run.leader)) || Array.for_all (Swap_run.deploy_confirmed base) base.edges
  in
  if knows && leader_may_start then
    Array.iteri
      (fun i (es : Swap_run.edge) ->
        if
          String.equal es.edge.Ac2t.to_pk pk
          && es.redeem_txid = None
          && Option.is_some (Swap_run.published base es)
        then
          if Swap_run.settle base p es ~redeeming:true ~args:(Htlc.redeem_args ~secret:run.secret)
          then Swap_run.record base (Printf.sprintf "redeem:%d" i))
      base.edges

(* Refund expired outgoing contracts. This is each sender's rational
   self-protection — and the source of atomicity violations when a
   counterparty crashed. *)
let try_refund run p =
  let pk = Participant.public p in
  let base = run.base in
  let now = Universe.now base.universe in
  Array.iteri
    (fun i (es : Swap_run.edge) ->
      if
        String.equal es.edge.Ac2t.from_pk pk
        && es.refund_txid = None
        && es.redeem_txid = None
        && now >= run.timelocks.(i)
        && Option.is_some (Swap_run.published base es)
      then
        if Swap_run.settle base p es ~redeeming:false ~args:Htlc.refund_args then
          Swap_run.record base (Printf.sprintf "refund:%d" i))
    base.edges

let step run p =
  if not (Participant.is_crashed p) then begin
    learn_secret run p;
    try_deploy run p;
    try_redeem run p;
    try_refund run p
  end

let phases =
  [
    { Span.phase = "deploy"; opens = "deploy:"; closes = [ "deploy:" ] };
    { Span.phase = "redeem"; opens = "redeem:"; closes = [ "redeem:" ] };
    { Span.phase = "refund"; opens = "refund:"; closes = [ "refund:" ] };
  ]

(* --- Entry point ---------------------------------------------------------- *)

type handle = Swap_run.handle

let launch universe ~config ~graph ~participants ?(hooks = []) ?(verify = false)
    ?(obs_name = "herlihy") () =
  let leader = List.hd (Ac2t.participants graph) in
  let preflight =
    if not verify then []
    else
      Ac3_verify.Diagnostic.errors
        (Ac3_verify.Verify.herlihy_preflight ~graph ~delta:config.delta
           ~timelock_slack:config.timelock_slack ~start_time:(Universe.now universe))
      (* Model-check the whole transaction at zero fault budget: even a
         well-formed graph must not violate atomicity fault-free. *)
      @ Ac3_model.Checker.preflight_errors ~protocol:Ac3_model.Checker.Herlihy ~graph
          ~delta:config.delta ~timelock_slack:config.timelock_slack
          ~start_time:(Universe.now universe)
  in
  if preflight <> [] then
    Error (Fmt.str "static verification failed:@.%s" (Ac3_verify.Verify.render preflight))
  else if not (Ac2t.single_leader_executable graph leader) then
    Error
      (Fmt.str "graph (%a) is not executable by a single-leader protocol (Sec 5.3)"
         Ac2t.pp_shape (Ac2t.classify graph))
  else
    Result.bind (rounds_from_leader graph leader) (fun depth_of ->
        Result.map
          (fun (base : Swap_run.t) ->
            let diam = Ac2t.diameter graph in
            let secret = Sha256.digest_list [ "herlihy-secret"; Ac2t.to_bytes graph ] in
            (* Timelocks decrease with distance from the leader: contracts
               deployed later expire sooner, so everyone who acts on time
               can redeem before their own lock expires. *)
            let timelock (e : Ac2t.edge) =
              base.start_time
              +. (config.delta
                 *. (float_of_int ((2 * diam) - depth_of e.Ac2t.from_pk) +. config.timelock_slack))
            in
            let run =
              {
                base;
                leader;
                secret;
                hashlock = Htlc.hashlock_of_secret secret;
                timelocks = Array.of_list (List.map timelock (Ac2t.edges graph));
                knows_secret = [ leader ];
              }
            in
            Swap_run.start base ~poll_interval:config.poll_interval ~step:(step run)
              ~settled:(fun () -> Swap_run.all_settled base ~aborted:false)
              ~phases ~observe:(Swap_run.observe base ~name:obs_name ~phases))
          (Swap_run.create universe ~graph ~participants ~hooks))

let execute universe ~config ~graph ~participants ?hooks ?verify ?obs_name () =
  Result.map
    (fun h -> Swap_run.execute h ~timeout:config.timeout)
    (launch universe ~config ~graph ~participants ?hooks ?verify ?obs_name ())
