(* AC3TW: atomic cross-chain commitment with a centralized trusted
   witness (paper Sec 4.1).

   Protocol: participants multisign the graph and register ms(D) at
   Trent; everyone deploys their per-edge contracts concurrently, with
   both commitment schemes bound to (ms(D), PK_T); once all contracts are
   confirmed, any participant requests T(ms(D), RD) from Trent and all
   recipients redeem with it in parallel. On abort, T(ms(D), RF) lets all
   senders refund. Trent's key/value store makes the two signatures
   mutually exclusive.

   The protocol is atomic but hinges on a trusted, available Trent — the
   single point of failure AC3WN removes.

   This module holds the protocol logic only: the per-participant step
   and Trent's decision rule. {!Swap_run} drives the run; AC3TW folds
   nothing into the universe's metrics or spans. *)

module Engine = Ac3_sim.Engine
module Keys = Ac3_crypto.Keys
module Ac2t = Ac3_contract.Ac2t
module Centralized_sc = Ac3_contract.Centralized_sc

let src = Logs.Src.create "ac3.tw" ~doc:"AC3TW protocol"

module Log = (val Logs.src_log src : Logs.LOG)

type config = { poll_interval : float; timeout : float }

let default_config = { poll_interval = 2.0; timeout = 10_000.0 }

type run = {
  base : Swap_run.t;
  ms_id : string;
  trent : Trent.t;
  mutable redeem_signature : Keys.signature option;
  mutable refund_signature : Keys.signature option;
  mutable abort_requested : bool;
}

let try_deploy run p =
  let pk = Participant.public p in
  Array.iteri
    (fun i (es : Swap_run.edge) ->
      if String.equal es.edge.Ac2t.from_pk pk && es.deploy_txid = None then begin
        let args =
          Centralized_sc.args ~recipient_pk:es.edge.Ac2t.to_pk ~ms_id:run.ms_id
            ~trent_pk:(Trent.public run.trent)
        in
        if Swap_run.deploy run.base p es ~code_id:Centralized_sc.code_id ~args then
          Swap_run.record run.base (Printf.sprintf "deploy:%d" i)
      end)
    run.base.edges

let try_decide run =
  let base = run.base in
  if run.redeem_signature = None && run.refund_signature = None then
    if run.abort_requested then begin
      match Trent.request_refund run.trent ~ms_id:run.ms_id with
      | Ok s ->
          run.refund_signature <- Some s;
          Swap_run.record base "refund_signed"
      | Error e -> Log.debug (fun m -> m "Trent refused refund: %s" e)
    end
    else if Array.for_all (Swap_run.deploy_confirmed base) base.edges then begin
      let contracts =
        Array.to_list (Array.map (fun (es : Swap_run.edge) -> Option.get es.contract_id) base.edges)
      in
      match Trent.request_redeem run.trent ~ms_id:run.ms_id ~contracts with
      | Ok s ->
          run.redeem_signature <- Some s;
          Swap_run.record base "redeem_signed"
      | Error e -> Log.debug (fun m -> m "Trent refused redeem: %s" e)
    end

(* With Trent's signature in hand, recipients redeem their incoming
   edges and senders refund their outgoing ones. *)
let act run p ~redeeming signature =
  let pk = Participant.public p in
  Array.iteri
    (fun i (es : Swap_run.edge) ->
      if
        String.equal pk (if redeeming then es.edge.Ac2t.to_pk else es.edge.Ac2t.from_pk)
        && (if redeeming then es.redeem_txid else es.refund_txid) = None
        && Option.is_some (Swap_run.published run.base es)
      then
        if Swap_run.settle run.base p es ~redeeming ~args:(Centralized_sc.secret_args signature)
        then
          Swap_run.record run.base
            (Printf.sprintf "%s:%d" (if redeeming then "redeem" else "refund") i))
    run.base.edges

let step run p =
  if not (Participant.is_crashed p) then begin
    try_deploy run p;
    try_decide run;
    (match run.redeem_signature with Some s -> act run p ~redeeming:true s | None -> ());
    match run.refund_signature with Some s -> act run p ~redeeming:false s | None -> ()
  end

let execute universe ~config ~trent ~graph ~participants ?abort_after () =
  (* Phase 1: multisign and register at Trent. *)
  let ms = Ac2t.multisign graph (List.map Participant.identity participants) in
  Result.bind (Trent.register trent ~graph ~ms) (fun ms_id ->
      Result.map
        (fun base ->
          let run =
            {
              base;
              ms_id;
              trent;
              redeem_signature = None;
              refund_signature = None;
              abort_requested = false;
            }
          in
          Option.iter
            (fun delay ->
              Engine.schedule (Universe.engine universe) ~delay (fun () ->
                  if run.redeem_signature = None then run.abort_requested <- true))
            abort_after;
          Swap_run.execute ~timeout:config.timeout
            (Swap_run.start base ~poll_interval:config.poll_interval ~step:(step run)
               ~settled:(fun () -> Swap_run.all_settled base ~aborted:(run.refund_signature <> None))
               ~phases:[] ~observe:(fun ~finished:_ -> ())))
        (Swap_run.create universe ~graph ~participants ~hooks:[]))
