(* Proof of work: a block header is valid when its double-SHA-256 hash,
   read as a 256-bit big-endian number, is at or below the target. *)

(* Target with [bits] required leading zero bits: 2^(256-bits) - 1 encoded
   big-endian over 32 bytes. *)
let target_of_bits bits =
  if bits < 0 || bits > 256 then invalid_arg "Pow.target_of_bits";
  let t = Bytes.make 32 '\xff' in
  let full = bits / 8 and rem = bits mod 8 in
  for i = 0 to full - 1 do
    Bytes.set t i '\x00'
  done;
  if rem > 0 && full < 32 then Bytes.set t full (Char.chr (0xFF lsr rem));
  Bytes.unsafe_to_string t

(* Big-endian comparison: 32-byte strings compare like 256-bit numbers. *)
let meets_target ~hash ~target =
  String.length hash = 32 && String.length target = 32 && String.compare hash target <= 0

(* Expected hashes to find a block at this target: 2^256 / (target + 1).
   Computed in floating point, which is plenty for difficulty accounting. *)
let work_of_target target =
  let v = ref 0.0 in
  String.iter (fun c -> v := (!v *. 256.0) +. float_of_int (Char.code c)) target;
  if !v <= 0.0 then infinity
  else
    (* 2^256 as a float *)
    1.157920892373162e77 /. (!v +. 1.0)

(* The least nonce that makes the double SHA-256 of [header] (the
   nonce is its last 8 bytes, big-endian) meet [target]; nonces run from
   0 and [max_iters] bounds runaway grinding at high difficulty. *)
let grind ?(max_iters = 100_000_000) ~target header =
  match Ac3_crypto.Sha256.grind header ~target ~max_iters with
  | Some nonce -> nonce
  | None -> failwith "Pow.grind: exceeded max iterations"
