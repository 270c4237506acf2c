(* Mining process attached to a node.

   Block production is a Poisson process: the miner's next block arrives
   after an exponential delay with mean [interval / share], where [share]
   is this miner's fraction of the chain's hash power. Combining several
   miners yields the chain's configured block interval, and near-
   simultaneous finds on different nodes create natural forks. The PoW
   nonce grinding is real (against the chain's low target), so every block
   carries a verifiable proof of work. *)

module Engine = Ac3_sim.Engine
module Rng = Ac3_sim.Rng
module Metrics = Ac3_obs.Metrics

type t = {
  node : Node.t;
  engine : Engine.t;
  rng : Rng.t;
  address : string; (* coinbase payout address *)
  share : float; (* fraction of the chain's total hash power *)
  mutable running : bool;
  mutable blocks_mined : int;
  mined_meter : Metrics.counter;
  mempool_depth : Metrics.histogram;
}

let create ~engine ~rng ~node ~address ~share ?metrics () =
  if share <= 0.0 || share > 1.0 then invalid_arg "Miner.create: share must be in (0, 1]";
  let metrics = match metrics with Some m -> m | None -> Metrics.create ~enabled:false () in
  let labels = [ ("chain", (Node.params node).Params.chain_id) ] in
  {
    node;
    engine;
    rng;
    address;
    share;
    running = false;
    blocks_mined = 0;
    mined_meter = Metrics.counter metrics ~labels "chain.block.mined";
    mempool_depth =
      Metrics.histogram metrics ~labels ~lo:0.0 ~hi:200.0 ~buckets:20 "chain.mempool.depth";
  }

let blocks_mined t = t.blocks_mined

(* Assemble a block on the current tip from mempool candidates. *)
let assemble t =
  let store = Node.store t.node in
  let params = Node.params t.node in
  let ledger = Node.ledger t.node in
  let parent = Store.tip store in
  let height = parent.Block.header.Block.height + 1 in
  let time = Engine.now t.engine in
  Metrics.observe t.mempool_depth (float_of_int (Mempool.size (Node.mempool t.node)));
  let candidates = Mempool.candidates (Node.mempool t.node) ~limit:params.Params.block_capacity in
  let txs = Ledger.select_valid ledger ~block_height:height ~block_time:time candidates in
  let fees = Amount.sum (List.map (fun (tx : Tx.t) -> tx.Tx.fee) txs) in
  let reward = Amount.(params.Params.block_reward + fees) in
  let coinbase =
    Tx.coinbase ~chain:params.Params.chain_id ~height ~miner_addr:t.address ~reward
  in
  Block.mine ~chain:params.Params.chain_id ~height ~parent:(Block.hash parent) ~time
    ~target:(Pow.target_of_bits params.Params.pow_bits)
    ~txs:(coinbase :: txs)

let mine_one t =
  if not (Node.is_crashed t.node) then begin
    let block = assemble t in
    t.blocks_mined <- t.blocks_mined + 1;
    Metrics.incr t.mined_meter;
    ignore (Node.submit_block t.node block)
  end

let schedule_next t =
  let params = Node.params t.node in
  let mean = params.Params.block_interval /. t.share in
  let rec arm () =
    let delay =
      if params.Params.regular_blocks then mean
      else Rng.exponential t.rng ~mean
    in
    Engine.schedule t.engine ~delay (fun () ->
        if t.running then begin
          mine_one t;
          arm ()
        end)
  in
  arm ()

let start t =
  if not t.running then begin
    t.running <- true;
    (* Random initial offset so regular miners interleave instead of
       colliding on the same instants. *)
    let params = Node.params t.node in
    if params.Params.regular_blocks then begin
      let offset = Rng.float t.rng (params.Params.block_interval /. t.share) in
      Engine.schedule t.engine ~delay:offset (fun () -> if t.running then schedule_next t)
    end
    else schedule_next t
  end

let stop t = t.running <- false
