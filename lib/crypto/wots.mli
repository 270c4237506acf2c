(** Winternitz one-time signatures (w = 16) over SHA-256.

    One-time: a key must sign at most one message. The [tag] domain-
    separates chains between key pairs (MSS uses the leaf index). *)

type secret

(** 32-byte public key. *)
type public = string

type signature = string array

(** Number of hash chains in a signature (67 for w = 16). *)
val num_chains : int

(** Deterministic key from [seed], domain-separated by [tag]. *)
val generate : seed:string -> tag:string -> secret

(** [chain tag i ~from_ ~to_ x] applies steps [from_ .. to_-1] of hash
    chain [i] under key [tag] to the 32-byte value [x]; [x] itself when
    [from_ >= to_]. Each step hashes the framed record
    ("wots-step", tag, u16 chain, u16 step, x). *)
val chain : string -> int -> from_:int -> to_:int -> string -> string

val public : secret -> public

val sign : secret -> string -> signature

val verify : tag:string -> public -> string -> signature -> bool

(** Public key implied by a signature on [msg]; [None] if malformed.
    Used by MSS to recompute leaf values. *)
val public_from_signature : tag:string -> string -> signature -> public option

val signature_size : signature -> int

val encode_signature : Codec.Writer.t -> signature -> unit

val decode_signature : Codec.Reader.t -> signature
