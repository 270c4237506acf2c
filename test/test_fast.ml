(* Differential harness for the lib/fast hot-path optimizations.

   Three rewrites ride behind existing interfaces: the index-heap
   event queue (Ac3_sim.Engine), content-addressed memoization of
   txids, block header hashes and signature verdicts (Ac3_crypto.Keys,
   Ac3_chain), and incremental UTXO/ledger indexing across reorgs
   (Ac3_chain.Store). Each must be observably identical to its slow
   reference:

   - the engine is diffed event-by-event against the boxed-heap
     implementation it replaced (Reference.Engine) over randomized
     schedule/advance scripts;
   - every memoized path is computed with memo tables on and off
     (Ac3_fast.Memo.set_enabled) and the results compared, including
     after in-place mutation of already-hashed values;
   - reorged stores are diffed against fresh stores that only ever saw
     the winning branch, and chaos sweeps, a load run and corpus
     replays are rendered byte-for-byte under --jobs {1,2,4} and memo
     on/off. *)

module Engine = Ac3_sim.Engine
module Memo = Ac3_fast.Memo
module Sha256 = Ac3_crypto.Sha256
module Keys = Ac3_crypto.Keys
module Json = Ac3_crypto.Codec.Json
module Runner = Ac3_chaos.Runner
module Repro = Ac3_chaos.Repro
module Metrics = Ac3_obs.Metrics
module Obs = Ac3_obs.Obs
open Ac3_chain

(* --- Engine vs boxed-heap reference ----------------------------------- *)

(* Scripts quantize delays to quarter seconds and horizons to half
   seconds so equal-timestamp collisions (the tie-break path) are
   common, not accidental. *)
type op =
  | Schedule of int * int  (* delay in 1/4 s, label *)
  | Nested of int * int  (* outer delay, inner delay: callback schedules *)
  | Advance of int  (* run ~until:(now + k/2 s) *)

let pp_op = function
  | Schedule (d, l) -> Printf.sprintf "Schedule(%d,%d)" d l
  | Nested (a, b) -> Printf.sprintf "Nested(%d,%d)" a b
  | Advance q -> Printf.sprintf "Advance(%d)" q

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun d l -> Schedule (d, l)) (int_bound 16) (int_bound 99));
        (2, map2 (fun a b -> Nested (a, b)) (int_bound 16) (int_bound 8));
        (3, map (fun q -> Advance q) (int_bound 8));
      ])

let script_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 1 40) op_gen)

(* Everything the script needs from an engine, so the same interpreter
   drives both implementations. *)
type iface = {
  schedule : float -> (unit -> unit) -> unit;
  run_upto : float -> int;
  now : unit -> float;
  pending : unit -> int;
  executed : unit -> int;
}

let fast_iface () =
  let e = Engine.create () in
  {
    schedule = (fun delay f -> Engine.schedule e ~delay f);
    run_upto = (fun u -> Engine.run ~until:u e);
    now = (fun () -> Engine.now e);
    pending = (fun () -> Engine.pending_events e);
    executed = (fun () -> Engine.executed_events e);
  }

let ref_iface () =
  let e = Reference.Engine.create () in
  {
    schedule = (fun delay f -> Reference.Engine.schedule e ~delay f);
    run_upto = (fun u -> Reference.Engine.run ~until:u e);
    now = (fun () -> Reference.Engine.now e);
    pending = (fun () -> Reference.Engine.pending_events e);
    executed = (fun () -> Reference.Engine.executed_events e);
  }

(* Interpret [ops], logging every observable: fire order with
   timestamps, run counts, clock, pending and executed totals. Two
   engines are equivalent iff their logs match. *)
let interp iface ops =
  let buf = Buffer.create 512 in
  let log fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  List.iter
    (fun op ->
      match op with
      | Schedule (d, l) ->
          iface.schedule (float_of_int d /. 4.0) (fun () -> log "fire %d @ %g" l (iface.now ()))
      | Nested (a, b) ->
          iface.schedule (float_of_int a /. 4.0) (fun () ->
              log "outer %d @ %g" a (iface.now ());
              iface.schedule (float_of_int b /. 4.0) (fun () ->
                  log "inner %d.%d @ %g" a b (iface.now ())))
      | Advance q ->
          let u = iface.now () +. (float_of_int q /. 2.0) in
          let ran = iface.run_upto u in
          log "advance %g ran=%d now=%g pending=%d" u ran (iface.now ()) (iface.pending ()))
    ops;
  let ran = iface.run_upto 1e6 in
  log "drain ran=%d now=%g pending=%d executed=%d" ran (iface.now ()) (iface.pending ())
    (iface.executed ());
  Buffer.contents buf

let qcheck_engine_differential =
  QCheck.Test.make ~name:"arena engine == boxed-heap engine on random scripts" ~count:300
    script_arb (fun ops ->
      let fast = interp (fast_iface ()) ops in
      let slow = interp (ref_iface ()) ops in
      if not (String.equal fast slow) then
        QCheck.Test.fail_reportf "engine traces diverge:@.--- arena ---@.%s@.--- heap ---@.%s" fast
          slow;
      true)

(* --- Digest memoization: memo-on == memo-off -------------------------- *)

(* Compute [f] with every memo table bypassed and cleared — the
   reference mode. Re-enables the tables afterwards even on failure. *)
let memo_off f =
  Memo.set_enabled false;
  Memo.clear_all ();
  Fun.protect ~finally:(fun () -> Memo.set_enabled true) f

let hex = Ac3_crypto.Hex.encode

(* Deterministic identities for the whole file. Created once: MSS
   signing budgets (64 each) are consumed across test cases, so no test
   below signs inside a QCheck iteration. *)
let f_alice = Keys.create "fast-alice"

let f_bob = Keys.create "fast-bob"

let coin n = Amount.of_int n

let outpoint_gen =
  QCheck.Gen.(
    map2
      (fun tag index -> Outpoint.create ~txid:(Sha256.digest ("fast-op:" ^ string_of_int tag)) ~index)
      (int_bound 1000) (int_bound 3))

let output_gen =
  QCheck.Gen.(
    map2
      (fun tag amount -> { Tx.addr = String.sub (Sha256.digest ("fast-addr:" ^ string_of_int tag)) 0 20; amount = Amount.of_int (amount + 1) })
      (int_bound 1000) (int_bound 1_000_000))

(* Unsigned transactions: enough to drive txids without spending
   signature budget per iteration. *)
let tx_gen =
  QCheck.Gen.(
    map2
      (fun inputs outputs ->
        Tx.make_unsigned ~chain:"fastchain"
          ~inputs:(List.map (fun op -> (op, Keys.public f_alice)) inputs)
          ~outputs ~fee:(coin 7) ~nonce:42L ())
      (list_size (int_range 1 4) outpoint_gen)
      (list_size (int_range 1 4) output_gen))

let tx_arb = QCheck.make ~print:(fun tx -> hex (Tx.txid tx)) tx_gen

let qcheck_txid_memo_differential =
  QCheck.Test.make ~name:"txid: memoized == recomputed" ~count:100 tx_arb (fun tx ->
      let id1 = Tx.txid tx in
      let id2 = Tx.txid tx in
      let id0 = memo_off (fun () -> Tx.txid tx) in
      String.equal id1 id2 && String.equal id1 id0)

(* The block commitment is a Merkle root over memoized txids. *)
let qcheck_merkle_memo_differential =
  QCheck.Test.make ~name:"tx root over memoized txids" ~count:100
    QCheck.(list_of_size Gen.(0 -- 12) tx_arb)
    (fun txs ->
      let r1 = Block.merkle_root_of_txs txs in
      let r2 = Block.merkle_root_of_txs txs in
      let r0 = memo_off (fun () -> Block.merkle_root_of_txs txs) in
      String.equal r1 r2 && String.equal r1 r0)

(* A small pool of real signatures, signed once at module init. *)
let signed_pool =
  List.init 8 (fun i ->
      let msg = Printf.sprintf "fast-msg-%d" i in
      (msg, Keys.sign f_bob msg))

let qcheck_verify_memo_differential =
  QCheck.Test.make ~name:"Keys.verify: memoized == recomputed, including mismatches" ~count:100
    QCheck.(pair (int_bound 7) (int_bound 7))
    (fun (i, j) ->
      let msg_i, sig_i = List.nth signed_pool i in
      let msg_j, _ = List.nth signed_pool j in
      let pk = Keys.public f_bob in
      (* Match and cross-match: a wrong (msg, sig) pairing is a
         different memo key, so the cache can never alias verdicts. *)
      let v_ok = Keys.verify pk msg_i sig_i in
      let v_cross = Keys.verify pk msg_j sig_i in
      let v_ok0, v_cross0 =
        memo_off (fun () -> (Keys.verify pk msg_i sig_i, Keys.verify pk msg_j sig_i))
      in
      v_ok && Bool.equal v_ok v_ok0 && Bool.equal v_cross (i = j) && Bool.equal v_cross v_cross0)

(* --- Invalidation: mutate after first digest -------------------------- *)

let dummy_op tag = Outpoint.create ~txid:(Sha256.digest ("fast-mut:" ^ tag)) ~index:0

let test_tx_mutation_invalidates () =
  let mk nonce op =
    Tx.make ~chain:"fastchain"
      ~inputs:[ (op, f_alice) ]
      ~outputs:[ { Tx.addr = Keys.address f_bob; amount = coin 100 } ]
      ~fee:(coin 1) ~nonce ()
  in
  let tx = mk 1L (dummy_op "a") and donor = mk 2L (dummy_op "b") in
  let id_before = Tx.txid tx and sh_before = Tx.sighash tx in
  Alcotest.(check bool) "signed tx verifies" true (Tx.verify_signatures tx);
  (* In-place witness mutation AFTER the digests were memoized: the
     memo key is the full serialization, so the mutated tx must hash
     (and verify) as if no cache existed. *)
  let original = tx.Tx.witnesses.(0) in
  tx.Tx.witnesses.(0) <- donor.Tx.witnesses.(0);
  let id_mut = Tx.txid tx in
  Alcotest.(check bool) "mutation changes txid" false (String.equal id_before id_mut);
  Alcotest.(check string) "mutated txid == uncached" (hex (memo_off (fun () -> Tx.txid tx)))
    (hex id_mut);
  Alcotest.(check string) "sighash ignores witnesses" (hex sh_before) (hex (Tx.sighash tx));
  Alcotest.(check bool) "foreign witness rejected, not served stale" false
    (Tx.verify_signatures tx);
  tx.Tx.witnesses.(0) <- original;
  Alcotest.(check string) "restored tx re-hashes to the original" (hex id_before)
    (hex (Tx.txid tx));
  Alcotest.(check bool) "restored tx verifies again" true (Tx.verify_signatures tx)

let test_block_mutation_invalidates () =
  let txs =
    List.init 3 (fun i ->
        Tx.make ~chain:"fastchain"
          ~inputs:[ (dummy_op (string_of_int i), f_alice) ]
          ~outputs:[ { Tx.addr = Keys.address f_bob; amount = coin (50 + i) } ]
          ~fee:(coin 1)
          ~nonce:(Int64.of_int (10 + i))
          ())
  in
  let root_before = Block.merkle_root_of_txs txs in
  let victim = List.nth txs 1 and donor = List.nth txs 2 in
  let original = victim.Tx.witnesses.(0) in
  victim.Tx.witnesses.(0) <- donor.Tx.witnesses.(0);
  let root_mut = Block.merkle_root_of_txs txs in
  Alcotest.(check bool) "witness mutation changes the tx merkle root" false
    (String.equal root_before root_mut);
  Alcotest.(check string) "mutated root == uncached root"
    (hex (memo_off (fun () -> Block.merkle_root_of_txs txs)))
    (hex root_mut);
  victim.Tx.witnesses.(0) <- original;
  Alcotest.(check string) "restored root" (hex root_before) (hex (Block.merkle_root_of_txs txs))

let test_block_hash_memo_differential () =
  let cb = Tx.coinbase ~chain:"fastchain" ~height:1 ~miner_addr:(Keys.address f_alice) ~reward:(coin 100) in
  let block =
    Block.mine ~chain:"fastchain" ~height:1 ~parent:(Sha256.digest "fast-parent") ~time:1.0
      ~target:(Pow.target_of_bits 4) ~txs:[ cb ]
  in
  let h1 = Block.hash block in
  let h0 = memo_off (fun () -> Block.hash block) in
  Alcotest.(check string) "block hash: memoized == recomputed" (hex h0) (hex h1);
  Alcotest.(check bool) "meets target" true
    (Pow.meets_target ~target:block.Block.header.Block.target ~hash:h1)

(* --- Ledger / store: incremental reorg == from-scratch ---------------- *)

let fast_premine = [ (Keys.address f_alice, coin 10_000_000); (Keys.address f_bob, coin 10_000_000) ]

let mk_store () =
  let params = Params.make "fastchain" ~pow_bits:4 ~confirm_depth:2 ~premine:fast_premine in
  Store.create ~params ~registry:(Ac3_chain.Contract_iface.create_registry ())

let mine_into ?(miner = "fast-miner") store txs =
  let parent = Store.tip store in
  let params = Store.params store in
  let height = parent.Block.header.Block.height + 1 in
  let fees = Amount.sum (List.map (fun (tx : Tx.t) -> tx.Tx.fee) txs) in
  let coinbase =
    Tx.coinbase ~chain:params.Params.chain_id ~height
      ~miner_addr:(Keys.address (Keys.create miner))
      ~reward:Amount.(params.Params.block_reward + fees)
  in
  let block =
    Block.mine ~chain:params.Params.chain_id ~height ~parent:(Block.hash parent)
      ~time:(float_of_int height) ~target:(Pow.target_of_bits params.Params.pow_bits)
      ~txs:(coinbase :: txs)
  in
  match Store.add_block store block with
  | Store.Added _ -> block
  | r -> Alcotest.failf "mine_into: unexpected %s" (match r with
      | Store.Added _ -> "Added" | Store.Duplicate -> "Duplicate" | Store.Orphaned -> "Orphaned"
      | Store.Invalid e -> "Invalid: " ^ e)

let spend ~from_ ~to_ ~amount ~fee ~nonce store =
  let ledger = Store.ledger store in
  match Ledger.utxos_of ledger (Keys.address from_) with
  | [] -> Alcotest.fail "no utxos to spend"
  | (op, (o : Tx.output)) :: _ ->
      Tx.make ~chain:"fastchain"
        ~inputs:[ (op, from_) ]
        ~outputs:
          [
            { Tx.addr = Keys.address to_; amount };
            { Tx.addr = Keys.address from_; amount = Amount.(o.amount - amount - fee) };
          ]
        ~fee ~nonce ()

(* Losing branch with transactions, heavier clean branch, reorg: the
   incrementally-maintained indexes (per-entry txids, undo logs,
   address index) must leave the store byte-equal in state digest to a
   fresh store that only ever saw the winning branch. *)
let reorg_digests ~nonce0 () =
  let store_a = mk_store () in
  let store_b = mk_store () in
  let tx1 =
    spend ~from_:f_alice ~to_:f_bob ~amount:(coin 1000) ~fee:(coin 100) ~nonce:nonce0 store_a
  in
  ignore (mine_into store_a [ tx1 ] : Block.t);
  let tx2 =
    spend ~from_:f_bob ~to_:f_alice ~amount:(coin 500) ~fee:(coin 100)
      ~nonce:(Int64.add nonce0 1L) store_a
  in
  ignore (mine_into store_a [ tx2 ] : Block.t);
  let digest_loser = Ledger.state_digest (Store.ledger store_a) in
  (* Winning branch: three empty blocks by a different miner. *)
  let b1 = mine_into ~miner:"fast-miner-b" store_b [] in
  let b2 = mine_into ~miner:"fast-miner-b" store_b [] in
  let b3 = mine_into ~miner:"fast-miner-b" store_b [] in
  List.iter
    (fun b ->
      match Store.add_block store_a b with
      | Store.Added _ -> ()
      | _ -> Alcotest.fail "branch b rejected")
    [ b1; b2; b3 ];
  Alcotest.(check string) "reorg switched to the heavier branch"
    (hex (Block.hash b3))
    (hex (Store.tip_hash store_a));
  (* Fresh store that never reorged. *)
  let store_c = mk_store () in
  List.iter (fun b -> ignore (Store.add_block store_c b : Store.add_result)) [ b1; b2; b3 ];
  ( digest_loser,
    hex (Ledger.state_digest (Store.ledger store_a)),
    hex (Ledger.state_digest (Store.ledger store_c)) )

let test_reorg_differential () =
  let _, a_on, c_on = reorg_digests ~nonce0:100L () in
  Alcotest.(check string) "reorged store == fresh store (memo on)" c_on a_on;
  let _, a_off, c_off = memo_off (fun () -> reorg_digests ~nonce0:200L ()) in
  Alcotest.(check string) "reorged store == fresh store (memo off)" c_off a_off;
  Alcotest.(check string) "memo on == memo off" a_on a_off

(* --- C SHA-256 loops vs OCaml references ------------------------------ *)

(* The proof-of-work grinder, the one-shot digests and the WOTS chain
   walk run in C. Each is diffed against an OCaml loop: the grinder and
   the chain walk against their pre-C copies in [Reference], the
   one-shots against the OCaml streaming context. *)

let header_of ~chain ~target =
  Block.header_bytes
    {
      Block.chain;
      height = String.length chain;
      parent = Sha256.digest ("parent:" ^ chain);
      merkle_root = Sha256.digest ("root:" ^ chain);
      time = 1.5;
      target;
      nonce = 0L;
    }

let nonce = Alcotest.testable (fun ppf n -> Fmt.pf ppf "%Ld" n) Int64.equal

(* Chain ids of 0..80 bytes move the 8 nonce bytes across the block
   grid: at 9..15 they straddle the 128-byte boundary. The 500-byte id
   takes the grinder's heap-buffer path. *)
let test_grind_chain_lengths () =
  let target = Pow.target_of_bits 8 in
  List.iter
    (fun n ->
      let chain = String.init n (fun i -> Char.chr (97 + ((i * 7) mod 26))) in
      let header = header_of ~chain ~target in
      let want = Reference.Pow.mine_header ~target header in
      Alcotest.check nonce (Printf.sprintf "chain id of %d bytes" n) want (Pow.grind ~target header);
      let b = Block.mine ~chain ~height:n ~parent:(Sha256.digest ("parent:" ^ chain)) ~time:1.5
          ~target ~txs:[] in
      Alcotest.(check bool) (Printf.sprintf "mined block of %d meets target" n) true
        (Block.header_pow_ok b.Block.header))
    (List.init 81 Fun.id @ [ 500 ])

let test_grind_pow_bits () =
  List.iter
    (fun bits ->
      let target = Pow.target_of_bits bits in
      List.iter
        (fun chain ->
          let header = header_of ~chain ~target in
          Alcotest.check nonce
            (Printf.sprintf "%d bits, chain %S" bits chain)
            (Reference.Pow.mine_header ~target header)
            (Pow.grind ~target header))
        [ "w"; "attack-demo" ])
    (List.init 13 Fun.id)

(* Both give up after exactly [max_iters] misses: one short of the
   winning nonce fails, the winning nonce plus one finds it. *)
let test_grind_max_iters () =
  let target = Pow.target_of_bits 10 in
  let header = header_of ~chain:"attack-demo" ~target in
  let win = Reference.Pow.mine_header ~target header in
  Alcotest.(check bool) "winning nonce is past 0" true (win > 0L);
  let outcome f = match f () with n -> Some n | exception Failure _ -> None in
  List.iter
    (fun max_iters ->
      Alcotest.(check (option nonce))
        (Printf.sprintf "max_iters %d" max_iters)
        (outcome (fun () -> Reference.Pow.mine_header ~max_iters ~target header))
        (outcome (fun () -> Pow.grind ~max_iters ~target header)))
    [ 0; 1; Int64.to_int win; Int64.to_int win + 1 ];
  Alcotest.check_raises "grinder failure" (Failure "Pow.grind: exceeded max iterations")
    (fun () -> ignore (Pow.grind ~max_iters:(Int64.to_int win) ~target header));
  (* A hash equal to the target meets it: nonce 0's own hash as target. *)
  let exact = Sha256.digest2 header in
  Alcotest.check nonce "hash = target meets" 0L (Pow.grind ~target:exact header);
  Alcotest.check nonce "reference agrees" 0L (Reference.Pow.mine_header ~target:exact header)

let streaming_digest s =
  let ctx = Sha256.init () in
  Sha256.feed_string ctx s;
  Sha256.finalize ctx

let test_oneshot_lengths () =
  for n = 0 to 300 do
    let s = String.init n (fun i -> Char.chr (((i * 31) + n) land 255)) in
    Alcotest.(check string) (Printf.sprintf "digest, %d bytes" n) (hex (streaming_digest s))
      (hex (Sha256.digest s));
    Alcotest.(check string) (Printf.sprintf "digest2, %d bytes" n)
      (hex (Sha256.digest (Sha256.digest s)))
      (hex (Sha256.digest2 s))
  done

let test_digest_bytes_offsets () =
  let b = Bytes.init 400 (fun i -> Char.chr ((i * 13) land 255)) in
  List.iter
    (fun off ->
      List.iter
        (fun len ->
          if off + len <= Bytes.length b then
            Alcotest.(check string)
              (Printf.sprintf "digest_bytes at %d, %d bytes" off len)
              (hex (streaming_digest (Bytes.sub_string b off len)))
              (hex (Sha256.digest_bytes b off len)))
        [ 0; 1; 55; 56; 63; 64; 65; 119; 120; 128; 300 ])
    [ 0; 1; 7; 63; 64; 65; 99 ];
  List.iter
    (fun (off, len) ->
      Alcotest.check_raises
        (Printf.sprintf "slice %d+%d rejected" off len)
        (Invalid_argument "Sha256.digest_bytes")
        (fun () -> ignore (Sha256.digest_bytes b off len)))
    [ (-1, 4); (0, -1); (397, 4); (401, 0) ]

let qcheck_digest_list =
  QCheck.Test.make ~name:"digest_list = digest of the concatenation" ~count:300
    QCheck.(small_list string)
    (fun parts -> Sha256.digest_list parts = streaming_digest (String.concat "" parts))

(* Tag lengths 0..140 slide the step bytes and chain value across the
   64-byte grid (the step bytes straddle it at 44); a 600-byte tag takes
   the heap-buffer path. Ranges include empty and full walks. *)
let test_wots_chain () =
  let x = Sha256.digest "wots-x" in
  let check tag i from_ to_ =
    Alcotest.(check string)
      (Printf.sprintf "tag %d bytes, chain %d, steps %d..%d" (String.length tag) i from_ to_)
      (hex (Reference.Wots.chain tag i ~from_ ~to_ x))
      (hex (Ac3_crypto.Wots.chain tag i ~from_ ~to_ x))
  in
  List.iter
    (fun n ->
      let tag = String.make n 't' in
      List.iter (fun (from_, to_) -> check tag (n mod 67) from_ to_)
        [ (0, 15); (3, 7); (5, 5); (9, 2); (14, 15) ])
    (List.init 141 Fun.id @ [ 600 ]);
  for from_ = 0 to 15 do
    for to_ = 0 to 15 do
      check "mss:leaf:7" 66 from_ to_
    done
  done

(* --- Chaos sweeps and load runs: jobs x memo byte-identity ------------ *)

let summary_render (s : Runner.summary) =
  Fmt.str "%a" Runner.pp_summary s ^ "\n" ^ Json.to_string (Metrics.to_json s.Runner.obs.Obs.metrics)

let test_sweep_jobs_differential () =
  let sweep ~jobs = summary_render (Runner.sweep ~jobs ~seed:1 ~runs:2 ()) in
  let base = sweep ~jobs:1 in
  List.iter
    (fun (name, render) ->
      Alcotest.(check bool) (name ^ " == sweep(jobs=1)") true (String.equal base (render ())))
    [
      ("sweep(jobs=2)", fun () -> sweep ~jobs:2);
      ("sweep(jobs=4)", fun () -> sweep ~jobs:4);
      ("sweep(jobs=1, memo off)", fun () -> memo_off (fun () -> sweep ~jobs:1));
    ]

(* One contended load run, where the txid and header-hash tables see
   most of their hits: memo on and off must agree on the report and on
   every metric. *)
let test_load_memo_differential () =
  let config =
    {
      Ac3_load.Workload.default with
      Ac3_load.Workload.swaps = 12;
      users = 6;
      chains = 2;
      arrival = Ac3_load.Workload.Open_loop { rate = 0.5 };
      deadline = 300.0;
    }
  in
  let render () =
    let report, obs = Ac3_load.Engine.run ~seed:5 config in
    (Ac3_load.Engine.render report, Json.to_string (Metrics.to_json obs.Obs.metrics))
  in
  let report_on, metrics_on = render () in
  let report_off, metrics_off = memo_off render in
  Alcotest.(check string) "load report: memo on == memo off" report_off report_on;
  Alcotest.(check string) "load metrics: memo on == memo off" metrics_off metrics_on

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let corpus_dir =
  if Sys.file_exists "chaos_corpus" then "chaos_corpus" else Filename.concat "test" "chaos_corpus"

(* Replay the committed chaos corpus with memoization on and off: the
   rendered verdicts must be byte-identical, and both must match the
   recorded expectations. *)
let test_corpus_replay_memo_differential () =
  let path = Filename.concat corpus_dir "supply_chain_static_t001.json" in
  let repro = Repro.of_string (read_file path) in
  let render () =
    let results = Repro.replay repro in
    Alcotest.(check bool) (path ^ " replays to its recorded verdicts") true
      (Repro.replay_ok results);
    String.concat "\n" (List.map (Fmt.str "%a" Repro.pp_replay_result) results)
  in
  let with_memo = render () in
  let without_memo = memo_off render in
  Alcotest.(check string) "corpus replay: memo on == memo off" without_memo with_memo

let () =
  Alcotest.run "fast"
    [
      ("engine-differential", [ QCheck_alcotest.to_alcotest qcheck_engine_differential ]);
      ( "digest-memoization",
        [
          QCheck_alcotest.to_alcotest qcheck_txid_memo_differential;
          QCheck_alcotest.to_alcotest qcheck_merkle_memo_differential;
          QCheck_alcotest.to_alcotest qcheck_verify_memo_differential;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "tx witness mutation invalidates" `Quick test_tx_mutation_invalidates;
          Alcotest.test_case "block tx mutation invalidates" `Quick
            test_block_mutation_invalidates;
          Alcotest.test_case "block hash differential" `Quick test_block_hash_memo_differential;
        ] );
      ( "c-loop-differential",
        [
          Alcotest.test_case "grinder: chain ids 0..80" `Quick test_grind_chain_lengths;
          Alcotest.test_case "grinder: pow_bits 0..12" `Quick test_grind_pow_bits;
          Alcotest.test_case "grinder: max_iters" `Quick test_grind_max_iters;
          Alcotest.test_case "one-shot = streaming, 0..300 bytes" `Quick test_oneshot_lengths;
          Alcotest.test_case "digest_bytes offsets" `Quick test_digest_bytes_offsets;
          QCheck_alcotest.to_alcotest qcheck_digest_list;
          Alcotest.test_case "wots chain walk" `Quick test_wots_chain;
        ] );
      ( "ledger-differential",
        [ Alcotest.test_case "incremental reorg == from-scratch" `Quick test_reorg_differential ] );
      ( "sweep-differential",
        [
          Alcotest.test_case "jobs byte-identity" `Slow test_sweep_jobs_differential;
          Alcotest.test_case "load run memo on/off" `Slow test_load_memo_differential;
          Alcotest.test_case "corpus replay memo on/off" `Slow
            test_corpus_replay_memo_differential;
        ] );
    ]
