(* Cross-layer property and invariant tests:

   - value conservation of the ledger under random transfer workloads;
   - exact reorg reversibility (state digests agree after undo);
   - the Algorithm 1 state machine never leaves {P, RD, RF} and pays out
     exactly once, under random call sequences;
   - evidence verification is monotone in depth and binds every field;
   - WOTS/MSS signatures bind every bit of the message;
   - the paper's Figure 2/3 merge/split example, reproduced literally. *)

module Keys = Ac3_crypto.Keys
module Sha256 = Ac3_crypto.Sha256
module Rng = Ac3_sim.Rng
open Ac3_chain

let coin n = Amount.of_int n

(* --- Harness: direct-mined single chain --------------------------------- *)

let ids = Array.init 4 (fun i -> Keys.create (Printf.sprintf "props-id%d" i))

(* Random-workload stores skip signature verification (the crypto layer
   has its own tests); MSS identities would otherwise exhaust after a few
   hundred generated transfers. *)
let mk_store ?(premine_each = 10_000_000) () =
  let premine = Array.to_list (Array.map (fun id -> (Keys.address id, coin premine_each)) ids) in
  let params =
    Params.make "props" ~pow_bits:4 ~confirm_depth:2 ~verify_signatures:false ~premine
  in
  Store.create ~params ~registry:(Ac3_contract.Registry.standard ())

let mine_into ?(miner = "props-miner") store txs =
  let parent = Store.tip store in
  let p = Store.params store in
  let height = parent.Block.header.Block.height + 1 in
  let fees = Amount.sum (List.map (fun (tx : Tx.t) -> tx.Tx.fee) txs) in
  let coinbase =
    Tx.coinbase ~chain:p.Params.chain_id ~height
      ~miner_addr:(Keys.address (Keys.create miner))
      ~reward:Amount.(p.Params.block_reward + fees)
  in
  let block =
    Block.mine ~chain:p.Params.chain_id ~height ~parent:(Block.hash parent)
      ~time:(float_of_int height)
      ~target:(Pow.target_of_bits p.Params.pow_bits)
      ~txs:(coinbase :: txs)
  in
  (block, Store.add_block store block)

(* Build one random valid transfer on the current ledger, if possible. *)
let random_transfer rng store =
  let ledger = Store.ledger store in
  let from_ = ids.(Rng.int rng (Array.length ids)) in
  let to_ = ids.(Rng.int rng (Array.length ids)) in
  match Ledger.utxos_of ledger (Keys.address from_) with
  | [] -> None
  | utxos ->
      let op, (o : Tx.output) = List.nth utxos (Rng.int rng (List.length utxos)) in
      let p = Store.params store in
      let fee = p.Params.transfer_fee in
      if Amount.compare o.amount Amount.(fee + coin 2) < 0 then None
      else begin
        let pay = Amount.of_int64 (Int64.of_int (1 + Rng.int rng 1000)) in
        let pay = if Amount.compare pay Amount.(o.amount - fee) > 0 then Amount.(o.amount - fee) else pay in
        let change = Amount.(o.amount - fee - pay) in
        let outputs =
          ({ addr = Keys.address to_; amount = pay } : Tx.output)
          ::
          (if Amount.is_zero change then []
           else [ ({ addr = Keys.address from_; amount = change } : Tx.output) ])
        in
        Some
          (Tx.make_unsigned ~chain:"props" ~inputs:[ (op, Keys.public from_) ] ~outputs ~fee
             ~nonce:(Rng.int64 rng) ())
      end

(* --- Conservation under random workloads --------------------------------- *)

let qcheck_conservation =
  QCheck.Test.make ~name:"supply grows by exactly one block reward per block" ~count:15
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = Rng.create seed in
      let store = mk_store () in
      let ledger = Store.ledger store in
      let p = Store.params store in
      let ok = ref true in
      for _ = 1 to 8 do
        let supply_before = Ledger.total_supply ledger in
        let txs = List.filter_map (fun _ -> random_transfer rng store) (List.init 5 Fun.id) in
        let txs = Ledger.select_valid ledger ~block_height:(Store.tip_height store + 1) ~block_time:0.0 txs in
        (match mine_into store txs with
        | _, Store.Added _ -> ()
        | _, _ -> ok := false);
        let expected = Amount.(supply_before + p.Params.block_reward) in
        if not (Amount.equal (Ledger.total_supply ledger) expected) then ok := false
      done;
      !ok)

let qcheck_no_negative_balances =
  QCheck.Test.make ~name:"balances never go negative; utxo owners well-formed" ~count:10
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = Rng.create (seed + 5000) in
      let store = mk_store () in
      for _ = 1 to 6 do
        let txs = List.filter_map (fun _ -> random_transfer rng store) (List.init 4 Fun.id) in
        let txs =
          Ledger.select_valid (Store.ledger store)
            ~block_height:(Store.tip_height store + 1) ~block_time:0.0 txs
        in
        ignore (mine_into store txs)
      done;
      Array.for_all
        (fun id -> Amount.compare (Ledger.balance_of (Store.ledger store) (Keys.address id)) Amount.zero >= 0)
        ids)

(* --- Reorg reversibility ---------------------------------------------------- *)

let qcheck_reorg_reversible =
  QCheck.Test.make ~name:"reorg away and back restores the exact state digest" ~count:10
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = Rng.create (seed + 9000) in
      (* Store A advances 2 blocks with random txs; snapshot digest. An
         independent store B (same genesis) builds a 3-block branch, which
         A adopts (reorg). Then A extends the ORIGINAL branch by 2 more
         blocks mined on store C (a replica of A's original chain),
         making it heaviest again; the state must replay consistently. *)
      let store_a = mk_store () in
      let store_c = mk_store () in
      let sync tx_block = ignore (Store.add_block store_c tx_block) in
      for _ = 1 to 2 do
        let txs = List.filter_map (fun _ -> random_transfer rng store_a) (List.init 3 Fun.id) in
        let txs =
          Ledger.select_valid (Store.ledger store_a)
            ~block_height:(Store.tip_height store_a + 1) ~block_time:0.0 txs
        in
        let block, r = mine_into store_a txs in
        (match r with Store.Added _ -> () | _ -> failwith "original branch rejected");
        sync block
      done;
      let digest_original = Ledger.state_digest (Store.ledger store_a) in
      let tip_original = Store.tip_hash store_a in
      (* Competing branch from genesis on a fresh store. *)
      let store_b = mk_store () in
      for _ = 1 to 3 do
        let _, r = mine_into ~miner:"props-branch-b" store_b [] in
        match r with Store.Added _ -> () | _ -> failwith "branch b rejected"
      done;
      (* Feed branch B to A: must reorg. *)
      for h = 1 to 3 do
        match Store.block_at_height store_b h with
        | Some b -> ignore (Store.add_block store_a b)
        | None -> failwith "missing branch b block"
      done;
      let reorged = not (String.equal (Store.tip_hash store_a) tip_original) in
      (* Extend the original branch to 4 blocks via store C and feed to A. *)
      for _ = 1 to 2 do
        let block, r = mine_into ~miner:"props-extender" store_c [] in
        (match r with Store.Added _ -> () | _ -> failwith "extension rejected");
        ignore (Store.add_block store_a block)
      done;
      (* A must now be back on the original branch, with state = original
         state evolved by two empty blocks; undoing those two via digest
         of store C must agree with A. *)
      let back =
        Store.is_active store_a tip_original
        && String.equal
             (Ledger.state_digest (Store.ledger store_a))
             (Ledger.state_digest (Store.ledger store_c))
      in
      ignore digest_original;
      reorged && back)

(* --- The swap-contract state machine ------------------------------------------ *)

(* Drive Htlc.Code directly with fabricated contexts: no chain, pure
   state-machine checking. *)
let qcheck_swap_state_machine =
  let module H = Ac3_contract.Htlc in
  let module CI = Contract_iface in
  QCheck.Test.make ~name:"Algorithm 1: single transition, single payout, P->RD/RF only"
    ~count:200
    QCheck.(pair (int_range 0 1000) (list_of_size Gen.(1 -- 12) (int_range 0 3)))
    (fun (seed, actions) ->
      let rng = Rng.create (seed + 777) in
      let secret = Printf.sprintf "secret-%d" seed in
      let recipient = Keys.create "props-htlc-recipient" in
      let sender = Keys.create "props-htlc-sender" in
      let timelock = 10.0 in
      let ctx time : CI.ctx =
        {
          chain_id = "props";
          block_height = 1;
          block_time = time;
          txid = Sha256.digest (string_of_int (Rng.int rng 1_000_000));
          sender = Keys.public sender;
          value = Amount.zero;
          contract_id = Sha256.digest "cid";
          balance = coin 1000;
        }
      in
      let init_ctx = { (ctx 0.0) with CI.value = coin 1000 } in
      match
        H.Code.init init_ctx
          (H.args ~recipient_pk:(Keys.public recipient)
             ~hashlock:(H.hashlock_of_secret secret) ~timelock)
      with
      | Error _ -> false
      | Ok state0 ->
          let module ST = Ac3_contract.Swap_template in
          let state = ref state0 in
          let payouts = ref [] in
          let ok = ref true in
          List.iter
            (fun action ->
              let fn, args, time =
                match action with
                | 0 -> ("redeem", H.redeem_args ~secret, 5.0)
                | 1 -> ("redeem", H.redeem_args ~secret:"wrong", 5.0)
                | 2 -> ("refund", H.refund_args, 20.0) (* past timelock *)
                | _ -> ("refund", H.refund_args, 5.0) (* too early *)
              in
              match H.Code.call (ctx time) ~state:!state ~fn ~args with
              | Ok outcome ->
                  state := outcome.CI.state;
                  payouts := outcome.CI.payouts @ !payouts
              | Error _ -> ())
            actions;
          (* Invariants: at most one payout; terminal states absorbing;
             status well-formed. *)
          let status_ok =
            ST.is_published !state || ST.is_redeemed !state || ST.is_refunded !state
          in
          let payout_ok =
            match !payouts with
            | [] -> ST.is_published !state
            | [ (addr, amount) ] ->
                Amount.equal amount (coin 1000)
                && ((ST.is_redeemed !state && String.equal addr (Keys.address recipient))
                   || (ST.is_refunded !state && String.equal addr (Keys.address sender)))
            | _ -> false
          in
          !ok && status_ok && payout_ok)

(* --- Static verification agrees with dynamic execution --------------------------- *)

(* For random single-leader graphs (a ring backbone, optionally a chord),
   the static timelock pass accepts exactly when a crash-free
   [Herlihy.execute] run commits atomically: executable graphs pass the
   verifier and commit; graphs that are cyclic without the leader fail
   the verifier and are refused by the protocol. The ring backbone
   guarantees every vertex has a directed path to the leader (no T001),
   and delta is generous relative to the chains, so the only sources of
   disagreement would be genuine verifier or protocol bugs. *)
let qcheck_static_matches_dynamic =
  let module S = Ac3_core.Scenarios in
  let module U = Ac3_core.Universe in
  let module H = Ac3_core.Herlihy in
  let module V = Ac3_verify.Verify in
  let module D = Ac3_verify.Diagnostic in
  let module Ac2t = Ac3_contract.Ac2t in
  let runs = ref 0 in
  QCheck.Test.make ~name:"static timelock verdict = crash-free Herlihy outcome" ~count:6
    QCheck.(triple (int_range 3 4) (int_range 0 2) (int_range 0 97))
    (fun (n, kind, salt) ->
      (* QCheck's int shrinker can wander outside int_range bounds;
         treat such inputs as vacuously true. *)
      if n < 3 || n > 4 || kind < 0 || kind > 2 || salt < 0 then true
      else begin
      incr runs;
      (* Fresh MSS identities per run, including shrink retries. *)
      let ns = Printf.sprintf "sv%d-%d-%d-%d" n kind salt !runs in
      let ids' = S.identities ~ns n in
      let chains = List.init n (Printf.sprintf "chain%d") in
      let u, participants =
        S.make_universe ~seed:(salt + (31 * n) + kind) ~block_interval:5.0 ~confirm_depth:3
          ~chains ids' ()
      in
      U.run_until u 50.0;
      let ring = Ac2t.edges (S.ring_graph ~chains ids' ~timestamp:(U.now u)) in
      let pk i = Keys.public (List.nth ids' i) in
      let i = salt mod (n - 2) in
      let j = i + 2 in
      let chord =
        match kind with
        | 0 -> [] (* plain ring: executable *)
        | 1 ->
            (* forward chord skipping a vertex: still acyclic without the
               leader, so still executable *)
            [
              {
                Ac2t.from_pk = pk i;
                to_pk = pk j;
                amount = coin (7700 + salt);
                chain = List.nth chains i;
              };
            ]
        | _ ->
            (* back chord between non-leader vertices: a cycle that
               survives removing the leader — not executable (Fig 7a) *)
            let i' = max 1 i in
            [
              {
                Ac2t.from_pk = pk j;
                to_pk = pk i';
                amount = coin (8800 + salt);
                chain = List.nth chains j;
              };
            ]
      in
      let graph = Ac2t.create ~edges:(ring @ chord) ~timestamp:(U.now u) in
      let delta = 2.5 *. U.max_delta u in
      (* Commit completes within ~100 virtual seconds; the timeout only
         bounds the refund path of a (bug-indicating) aborted run. *)
      let config = { (H.default_config ~delta) with H.timeout = 5000.0 } in
      let static_ok =
        not
          (D.has_errors
             (V.herlihy_preflight ~graph ~delta ~timelock_slack:config.H.timelock_slack
                ~start_time:(U.now u)))
      in
      let dynamic_ok =
        match H.execute u ~config ~graph ~participants () with
        | Ok r -> r.Ac3_core.Swap_run.committed && r.Ac3_core.Swap_run.atomic
        | Error _ -> false
      in
      static_ok = dynamic_ok
      end)

(* --- Evidence: depth monotonicity ------------------------------------------------ *)

let qcheck_evidence_depth_monotone =
  let module Ev = Ac3_contract.Evidence in
  QCheck.Test.make ~name:"evidence verifies iff depth <= burial" ~count:10
    QCheck.(int_range 2 8)
    (fun extra_blocks ->
      let store = mk_store () in
      let rng = Rng.create extra_blocks in
      let tx = Option.get (random_transfer rng store) in
      let _, r = mine_into store [ tx ] in
      (match r with Store.Added _ -> () | _ -> failwith "rejected");
      for _ = 1 to extra_blocks do
        ignore (mine_into store [])
      done;
      let checkpoint = (Store.genesis store).Block.header in
      match Ev.build ~store ~checkpoint ~txid:(Tx.txid tx) with
      | Error _ -> false
      | Ok ev ->
          List.for_all
            (fun depth ->
              let verdict = Result.is_ok (Ev.verify ~checkpoint ~depth ev) in
              if depth <= extra_blocks then verdict else not verdict)
            (List.init (extra_blocks + 3) Fun.id))

(* --- Signatures bind every bit ------------------------------------------------------ *)

let qcheck_wots_bit_binding =
  QCheck.Test.make ~name:"WOTS rejects any single-bit message flip" ~count:30
    QCheck.(pair small_string (int_range 0 255))
    (fun (msg, bit) ->
      let msg = msg ^ "x" in
      let sk = Ac3_crypto.Wots.generate ~seed:"props-wots" ~tag:"t" in
      let pk = Ac3_crypto.Wots.public sk in
      let s = Ac3_crypto.Wots.sign sk msg in
      let i = bit mod (8 * String.length msg) in
      let flipped = Bytes.of_string msg in
      Bytes.set flipped (i / 8) (Char.chr (Char.code msg.[i / 8] lxor (1 lsl (i mod 8))));
      let flipped = Bytes.to_string flipped in
      Ac3_crypto.Wots.verify ~tag:"t" pk msg s
      && not (Ac3_crypto.Wots.verify ~tag:"t" pk flipped s))

(* --- Paper Figures 2 and 3: TX1 merges, TX2 splits ----------------------------------- *)

let test_fig2_merge_split () =
  (* Alice owns three assets (0.5, 1.0, 0.3 "bitcoins" at 10^6 units);
     TX1 merges them into 1.8 to Bob; TX2 splits Bob's 1.8 into 0.3 to
     Alice and 1.5 to Bob — exactly the paper's example, with zero fees
     (the paper's no-fee assumption). *)
  let alice = Keys.create "fig2-alice" and bob = Keys.create "fig2-bob" in
  let unit_ = 1_000_000 in
  let premine =
    [
      (Keys.address alice, coin (5 * unit_ / 10));
      (Keys.address alice, coin unit_);
      (Keys.address alice, coin (3 * unit_ / 10));
    ]
  in
  let params =
    Params.make "fig2" ~pow_bits:4 ~confirm_depth:1 ~transfer_fee:Amount.zero ~premine
  in
  let store = Store.create ~params ~registry:(Ac3_contract.Registry.standard ()) in
  let ledger = Store.ledger store in
  let utxos = Ledger.utxos_of ledger (Keys.address alice) in
  Alcotest.(check int) "alice has three assets" 3 (List.length utxos);
  (* TX1: merge all three into one output to Bob. *)
  let tx1 =
    Tx.make ~chain:"fig2"
      ~inputs:(List.map (fun (op, _) -> (op, alice)) utxos)
      ~outputs:[ { addr = Keys.address bob; amount = coin (18 * unit_ / 10) } ]
      ~fee:Amount.zero ~nonce:1L ()
  in
  (match mine_into ~miner:"fig2-miner" store [ tx1 ] with
  | _, Store.Added _ -> ()
  | _, Store.Invalid e -> Alcotest.fail e
  | _ -> Alcotest.fail "TX1 not added");
  Alcotest.(check int64) "bob owns 1.8" (Int64.of_int (18 * unit_ / 10))
    (Ledger.balance_of ledger (Keys.address bob));
  Alcotest.(check int64) "alice owns 0" 0L (Ledger.balance_of ledger (Keys.address alice));
  (* TX2: split Bob's 1.8 into 0.3 (Alice) + 1.5 (Bob). *)
  let op_bob, _ = List.hd (Ledger.utxos_of ledger (Keys.address bob)) in
  let tx2 =
    Tx.make ~chain:"fig2" ~inputs:[ (op_bob, bob) ]
      ~outputs:
        [
          { addr = Keys.address alice; amount = coin (3 * unit_ / 10) };
          { addr = Keys.address bob; amount = coin (15 * unit_ / 10) };
        ]
      ~fee:Amount.zero ~nonce:2L ()
  in
  (match mine_into ~miner:"fig2-miner" store [ tx2 ] with
  | _, Store.Added _ -> ()
  | _ -> Alcotest.fail "TX2 not added");
  Alcotest.(check int64) "alice 0.3" (Int64.of_int (3 * unit_ / 10))
    (Ledger.balance_of ledger (Keys.address alice));
  Alcotest.(check int64) "bob 1.5" (Int64.of_int (15 * unit_ / 10))
    (Ledger.balance_of ledger (Keys.address bob));
  (* Figure 3's point: Bob could only spend the asset after TX1 put it in
     a previous block — a double spend of the merged asset must fail. *)
  let tx2_again =
    Tx.make ~chain:"fig2" ~inputs:[ (op_bob, bob) ]
      ~outputs:[ { addr = Keys.address bob; amount = coin (18 * unit_ / 10) } ]
      ~fee:Amount.zero ~nonce:3L ()
  in
  match mine_into ~miner:"fig2-miner" store [ tx2_again ] with
  | _, Store.Invalid _ -> ()
  | _ -> Alcotest.fail "double spend of merged asset accepted"

(* --- Block capacity enforcement ----------------------------------------------------- *)

let test_block_capacity () =
  let alice = Keys.create "cap-alice" in
  let premine = List.init 10 (fun _ -> (Keys.address alice, coin 1000)) in
  let params = Params.make "cap" ~pow_bits:4 ~block_capacity:3 ~transfer_fee:Amount.zero ~premine in
  let store = Store.create ~params ~registry:(Ac3_contract.Registry.standard ()) in
  let cb_txid = Tx.txid (List.hd (Store.genesis store).Block.txs) in
  let txs =
    List.init 5 (fun i ->
        Tx.make ~chain:"cap"
          ~inputs:[ (Outpoint.create ~txid:cb_txid ~index:i, alice) ]
          ~outputs:[ { addr = Keys.address alice; amount = coin 1000 } ]
          ~fee:Amount.zero ~nonce:(Int64.of_int i) ())
  in
  (* A block with 5 txs exceeds capacity 3 and must be rejected. *)
  let parent = Store.tip store in
  let coinbase =
    Tx.coinbase ~chain:"cap" ~height:1 ~miner_addr:(Keys.address alice)
      ~reward:params.Params.block_reward
  in
  let block =
    Block.mine ~chain:"cap" ~height:1 ~parent:(Block.hash parent) ~time:1.0
      ~target:(Pow.target_of_bits params.Params.pow_bits)
      ~txs:(coinbase :: txs)
  in
  match Store.add_block store block with
  | Store.Invalid reason ->
      Alcotest.(check bool) "mentions capacity" true
        (Astring.String.is_infix ~affix:"capacity" reason)
  | _ -> Alcotest.fail "over-capacity block accepted"

(* --- Coinbase reward ceiling --------------------------------------------------------- *)

let test_coinbase_ceiling () =
  let store = mk_store () in
  let p = Store.params store in
  let parent = Store.tip store in
  let coinbase =
    Tx.coinbase ~chain:"props" ~height:1
      ~miner_addr:(Keys.address ids.(0))
      ~reward:Amount.(p.Params.block_reward + coin 1)
  in
  let block =
    Block.mine ~chain:"props" ~height:1 ~parent:(Block.hash parent) ~time:1.0
      ~target:(Pow.target_of_bits p.Params.pow_bits) ~txs:[ coinbase ]
  in
  match Store.add_block store block with
  | Store.Invalid _ -> ()
  | _ -> Alcotest.fail "overpaying coinbase accepted"

let () =
  Alcotest.run "props"
    [
      ( "ledger-invariants",
        [
          QCheck_alcotest.to_alcotest qcheck_conservation;
          QCheck_alcotest.to_alcotest qcheck_no_negative_balances;
          QCheck_alcotest.to_alcotest qcheck_reorg_reversible;
        ] );
      ( "contract-invariants",
        [
          QCheck_alcotest.to_alcotest qcheck_swap_state_machine;
          QCheck_alcotest.to_alcotest qcheck_evidence_depth_monotone;
        ] );
      ( "verify-invariants",
        [ QCheck_alcotest.to_alcotest qcheck_static_matches_dynamic ] );
      ("signature-invariants", [ QCheck_alcotest.to_alcotest qcheck_wots_bit_binding ]);
      ( "paper-model",
        [
          Alcotest.test_case "Fig 2/3: TX1 merge, TX2 split, no double spend" `Quick
            test_fig2_merge_split;
          Alcotest.test_case "block capacity enforced" `Quick test_block_capacity;
          Alcotest.test_case "coinbase ceiling enforced" `Quick test_coinbase_ceiling;
        ] );
    ]
