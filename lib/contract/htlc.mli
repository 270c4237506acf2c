(** Hashlock + timelock contract (HTLC): the building block of the Nolan
    and Herlihy baseline protocols. *)

open Ac3_chain

val code_id : string

(** The registered contract code (state machine of Algorithm 1 with
    hashlock/timelock commitments). *)
module Code : Contract_iface.CODE

(** Constructor arguments: lock toward [recipient_pk] under [hashlock],
    refundable to the sender after [timelock]. *)
val args :
  recipient_pk:Ac3_crypto.Keys.public -> hashlock:string -> timelock:float -> Value.t

val hashlock_of_secret : string -> string

val redeem_args : secret:string -> Value.t

val refund_args : Value.t

(** Declared value semantics (Algorithm 1: full-deposit escrow,
    conserving redeem/refund). *)
val econ : Econ.t

(** Herlihy's timelock schedule (Sec 5.2): an edge whose source sits at
    BFS depth [d] from [leader] over directed edges expires at
    [start + delta * (2*Diam(graph) - d + slack)]. Returns [(d, expiry)]
    per edge in graph order, or [Error v] with the first participant (in
    graph order) that [leader] cannot reach. *)
val timelock_schedule :
  Ac2t.t ->
  leader:Ac3_crypto.Keys.public ->
  delta:float ->
  slack:float ->
  start:float ->
  ((int * float) list, Ac3_crypto.Keys.public) result
