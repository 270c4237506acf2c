(* SHA-256 (FIPS 180-4).

   All hashing runs in C (sha256_stubs.c), on the x86 SHA extensions
   when the CPU has them and through a portable scalar loop otherwise.
   Both paths compute the identical FIPS 180-4 function, verified
   against the NIST test vectors in the test suite, so digest values
   are bit-for-bit the same on every machine.

   This is the single hottest function in the repository — every WOTS
   chain step, Merkle node, transaction id, PoW nonce and HMAC block
   lands here. The one-shot digests pad, compress and emit in C with
   one 32-byte allocation per call. The streaming context below keeps
   buffering, padding and the length suffix in OCaml for callers that
   feed a message in pieces or replay a midstate (HMAC, DRBG, WOTS
   public keys); whole-block input spans go to the stub as one
   multi-block call, so long messages pay the OCaml->C boundary once. *)

type ctx = {
  h : int array; (* working variables H0..H7, 32-bit values in native ints *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total bytes fed, for the length suffix *)
}

(* [compress_blocks h buf off n] runs the compression function over [n]
   consecutive 64-byte blocks of [buf] starting at [off], updating [h]
   in place. The stub allocates nothing and cannot raise. *)
external compress_blocks : int array -> Bytes.t -> int -> int -> unit
  = "ac3_sha256_compress_stub"
  [@@noalloc]

external shani_available : unit -> bool = "ac3_sha256_shani_available_stub"

let iv = [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

let init () = { h = Array.copy iv; buf = Bytes.create 64; buf_len = 0; total = 0 }

let copy ctx =
  let c = init () in
  Array.blit ctx.h 0 c.h 0 8;
  Bytes.blit ctx.buf 0 c.buf 0 64;
  c.buf_len <- ctx.buf_len;
  c.total <- ctx.total;
  c

let restore ~src ~dst =
  Array.blit src.h 0 dst.h 0 8;
  Bytes.blit src.buf 0 dst.buf 0 64;
  dst.buf_len <- src.buf_len;
  dst.total <- src.total

let feed_bytes ctx (data : Bytes.t) off len =
  ctx.total <- ctx.total + len;
  let pos = ref off and remaining = ref len in
  (* Fill a partial buffer first. *)
  if ctx.buf_len > 0 then begin
    let take = min !remaining (64 - ctx.buf_len) in
    Bytes.blit data !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.buf_len = 64 then begin
      compress_blocks ctx.h ctx.buf 0 1;
      ctx.buf_len <- 0
    end
  end;
  (* Whole blocks straight from the input, one stub call for the span. *)
  let nblocks = !remaining / 64 in
  if nblocks > 0 then begin
    compress_blocks ctx.h data !pos nblocks;
    pos := !pos + (nblocks * 64);
    remaining := !remaining - (nblocks * 64)
  end;
  if !remaining > 0 then begin
    Bytes.blit data !pos ctx.buf 0 !remaining;
    ctx.buf_len <- !remaining
  end

let feed_string ctx s = feed_bytes ctx (Bytes.unsafe_of_string s) 0 (String.length s)

(* Padding is written into the context's own block buffer (after
   feeding, buf_len < 64 always holds), so finalization allocates only
   the 32-byte result. *)
let finalize ctx =
  let bit_len = ctx.total * 8 in
  let buf = ctx.buf in
  let n = ctx.buf_len in
  Bytes.unsafe_set buf n '\x80';
  if n + 1 > 56 then begin
    Bytes.fill buf (n + 1) (64 - n - 1) '\x00';
    compress_blocks ctx.h buf 0 1;
    Bytes.fill buf 0 56 '\x00'
  end
  else Bytes.fill buf (n + 1) (56 - n - 1) '\x00';
  for i = 0 to 7 do
    Bytes.unsafe_set buf (56 + i) (Char.unsafe_chr ((bit_len lsr (8 * (7 - i))) land 0xFF))
  done;
  compress_blocks ctx.h buf 0 1;
  ctx.buf_len <- 0;
  let h = ctx.h in
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let v = Array.unsafe_get h i in
    Bytes.unsafe_set out (4 * i) (Char.unsafe_chr ((v lsr 24) land 0xFF));
    Bytes.unsafe_set out ((4 * i) + 1) (Char.unsafe_chr ((v lsr 16) land 0xFF));
    Bytes.unsafe_set out ((4 * i) + 2) (Char.unsafe_chr ((v lsr 8) land 0xFF));
    Bytes.unsafe_set out ((4 * i) + 3) (Char.unsafe_chr (v land 0xFF))
  done;
  Bytes.unsafe_to_string out

(* One-shot digests: one C call each, returning a fresh 32-byte string.
   The slice stub is declared at both string and bytes types; it reads
   the input and never keeps it. *)
external digest_sub : string -> int -> int -> string = "ac3_sha256_digest_stub"

external digest_bytes_sub : Bytes.t -> int -> int -> string = "ac3_sha256_digest_stub"

(* Double SHA-256, as used by Bitcoin for block and transaction ids. *)
external digest2 : string -> string = "ac3_sha256_digest2_stub"

external digest_list : string list -> string = "ac3_sha256_digest_list_stub"

(* Returns the winning nonce, or -1 when [max_iters] nonces all miss. *)
external grind_stub : string -> string -> int -> int = "ac3_sha256_grind_stub"

let digest s = digest_sub s 0 (String.length s)

let digest_bytes b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Sha256.digest_bytes";
  digest_bytes_sub b off len

let hexdigest s = Hex.encode (digest s)

let grind header ~target ~max_iters =
  if String.length header < 8 || String.length target <> 32 then invalid_arg "Sha256.grind";
  let n = grind_stub header target max_iters in
  if n < 0 then None else Some (Int64.of_int n)
