(** SHA-256 (FIPS 180-4). Digests are 32-byte strings.

    Hashing runs in C — on the x86 SHA extensions when the CPU has them,
    through a portable scalar loop otherwise. Both compute the identical
    FIPS 180-4 function; digest values never depend on which path ran.
    The one-shot digests and {!grind} run entirely in C; the streaming
    context ({!init} .. {!finalize}) buffers in OCaml and hands whole
    blocks to C. *)

type ctx

(** Whether this machine's CPU provides the SHA extensions (reporting
    only — the digest value is the same either way). *)
val shani_available : unit -> bool

(** Fresh streaming context. *)
val init : unit -> ctx

(** Feed a chunk into the context. *)
val feed_string : ctx -> string -> unit

(** Finish and return the 32-byte digest. The context is left ready for
    [restore] or re-feeding after a reset by its owner; treat it as
    spent unless you explicitly restore it. *)
val finalize : ctx -> string

(** Independent copy of a context — capture a midstate once, replay it
    many times (HMAC key pads, fixed message prefixes). *)
val copy : ctx -> ctx

(** Overwrite [dst] with [src]'s state without allocating. *)
val restore : src:ctx -> dst:ctx -> unit

(** One-shot digest of a string: padded, compressed and emitted in C,
    with the 32-byte result as its only allocation. *)
val digest : string -> string

(** One-shot digest of a byte-buffer slice; lets hot loops patch a
    reusable message buffer in place instead of rebuilding a string.
    Raises [Invalid_argument] if the slice is out of bounds. *)
val digest_bytes : Bytes.t -> int -> int -> string

(** Digest of the concatenation of the parts, without materializing it. *)
val digest_list : string list -> string

(** One-shot digest rendered as lowercase hex. *)
val hexdigest : string -> string

(** Double SHA-256 ([digest (digest s)]), as used for Bitcoin-style ids. *)
val digest2 : string -> string

(** [grind header ~target ~max_iters] is the least nonce [n] below
    [max_iters] such that [digest2] of [header], with its last 8 bytes
    replaced by [n] big-endian, is at or below the 32-byte big-endian
    [target]; [None] if every such nonce misses. The blocks before the
    nonce are hashed once, and the loop runs without the domain's
    runtime lock, so a grinding domain never delays a stop-the-world
    collection. Raises [Invalid_argument] if [header] is shorter than 8
    bytes or [target] is not 32 bytes. *)
val grind : string -> target:string -> max_iters:int -> int64 option
