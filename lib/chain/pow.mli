(** Proof of work over 32-byte big-endian targets. *)

(** Target requiring [bits] leading zero bits in the block hash. *)
val target_of_bits : int -> string

(** [meets_target ~hash ~target] compares as 256-bit big-endian numbers. *)
val meets_target : hash:string -> target:string -> bool

(** Expected number of hashes to find a block at this target. *)
val work_of_target : string -> float

(** [grind ~target header] is the least nonce from 0 whose header
    meets [target]: the nonce is the last 8 bytes of the serialized
    [header], big-endian, and the hash is its double SHA-256. Raises
    [Failure] once [max_iters] (default 100M) nonces have missed, and
    [Invalid_argument] if [target] is not 32 bytes. *)
val grind : ?max_iters:int -> target:string -> string -> int64
