(* Slow reference implementations for the differential test harness
   (test_fast.ml).

   [Engine] is the boxed-heap event queue the simulator shipped with
   before the index heap of lib/sim/engine.ml replaced it, kept
   compiled under test so the optimized engine always has a live
   semantic baseline: same (time, seq) dispatch order, same
   clock-advance rules. The hash and ledger hot paths need no separate
   copy — their reference mode is
   the same code with every memo table passed through
   ([Ac3_fast.Memo.set_enabled false]), which the harness toggles.

   [Pow] and [Wots] are the OCaml loops the C proof-of-work grinder
   and WOTS chain walk (lib/crypto/sha256_stubs.c) replaced, hashing
   through the one-shot [Sha256] digests, which the harness in turn
   checks against the OCaml streaming context. *)

module Heap = Ac3_sim.Heap

module Engine = struct
  type event = { time : float; seq : int; callback : unit -> unit }

  type t = {
    mutable now : float;
    mutable next_seq : int;
    queue : event Heap.t;
    mutable executed : int;
  }

  let compare_event a b =
    let c = Float.compare a.time b.time in
    if c <> 0 then c else Int.compare a.seq b.seq

  let create () = { now = 0.0; next_seq = 0; queue = Heap.create compare_event; executed = 0 }

  let now t = t.now

  let executed_events t = t.executed

  let pending_events t = Heap.length t.queue

  let schedule_at t ~time callback =
    if time < t.now then
      invalid_arg
        (Printf.sprintf "Engine.schedule_at: time %.6f is in the past (now %.6f)" time t.now);
    let ev = { time; seq = t.next_seq; callback } in
    t.next_seq <- t.next_seq + 1;
    Heap.push t.queue ev

  let schedule t ~delay callback =
    if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
    schedule_at t ~time:(t.now +. delay) callback

  let run ?(until = infinity) ?stop t =
    let should_stop () = match stop with None -> false | Some f -> f () in
    let count = ref 0 in
    let rec loop () =
      if should_stop () then ()
      else
        match Heap.peek t.queue with
        | None -> ()
        | Some ev when ev.time > until -> ()
        | Some _ -> (
            match Heap.pop t.queue with
            | None -> ()
            | Some ev ->
                t.now <- ev.time;
                incr count;
                t.executed <- t.executed + 1;
                ev.callback ();
                loop ())
    in
    loop ();
    if (not (should_stop ())) && until < infinity && t.now < until then t.now <- until;
    !count

  let run_until t horizon = ignore (run ~until:horizon t)
end

(* [Pow.mine] as lib/chain/pow.ml shipped it: grind nonces from 0 through
   a caller-supplied hash until one meets the target. *)
module Pow = struct
  let mine ?(max_iters = 100_000_000) ~target hash_of_nonce =
    let rec go nonce iters =
      if iters >= max_iters then failwith "Pow.mine: exceeded max iterations";
      let h = hash_of_nonce nonce in
      if Ac3_chain.Pow.meets_target ~hash:h ~target then nonce
      else go (Int64.add nonce 1L) (iters + 1)
    in
    go 0L 0

  (* The closure [Block.mine] ground with: patch the nonce (the last 8
     bytes of the serialized header) in place and double-hash. *)
  let mine_header ?max_iters ~target header =
    let buf = Bytes.of_string header in
    let len = Bytes.length buf in
    mine ?max_iters ~target (fun nonce ->
        Bytes.set_int64_be buf (len - 8) nonce;
        Ac3_crypto.Sha256.digest (Ac3_crypto.Sha256.digest_bytes buf 0 len))
end

(* The WOTS chain walk's step loop, verbatim from lib/crypto/wots.ml. *)
module Wots = struct
  module Codec = Ac3_crypto.Codec
  module Sha256 = Ac3_crypto.Sha256

  let chain tag chain_index ~from_ ~to_ x =
    if from_ >= to_ then x
    else begin
      let w = Codec.Writer.create () in
      Codec.Writer.string w "wots-step";
      Codec.Writer.string w tag;
      Codec.Writer.u16 w chain_index;
      Codec.Writer.u16 w from_;
      Codec.Writer.fixed w ~len:32 x;
      let buf = Bytes.of_string (Codec.Writer.contents w) in
      let len = Bytes.length buf in
      let step_off = len - 34 and x_off = len - 32 in
      let v = ref x in
      for s = from_ to to_ - 1 do
        Bytes.unsafe_set buf step_off (Char.unsafe_chr ((s lsr 8) land 0xFF));
        Bytes.unsafe_set buf (step_off + 1) (Char.unsafe_chr (s land 0xFF));
        Bytes.blit_string !v 0 buf x_off 32;
        v := Sha256.digest_bytes buf 0 len
      done;
      !v
    end
end
