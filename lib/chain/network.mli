(** Simulated gossip network with random delays and partitions. *)

type message =
  | Block_msg of Block.t
  | Tx_msg of Tx.t
  | Block_request of { requester : string; hash : string }

type t

val create :
  ?min_delay:float -> ?max_delay:float -> engine:Ac3_sim.Engine.t -> rng:Ac3_sim.Rng.t -> unit -> t

val set_delays : t -> min_delay:float -> max_delay:float -> unit

(** Current (min_delay, max_delay) latency bounds. *)
val delays : t -> float * float

(** Per-link Bernoulli drop probability applied to every reachable
    message (chaos injection); raises outside [0, 1]. *)
val set_drop_probability : t -> float -> unit

val drop_probability : t -> float

(** Raises [Invalid_argument] on duplicate ids. *)
val register : t -> id:string -> (message -> unit) -> unit

(** Can a message flow between these endpoints under the current
    partition? *)
val reachable : t -> from:string -> to_:string -> bool

(** Split into groups; unlisted endpoints stay mutually connected. *)
val partition : t -> string list list -> unit

val heal : t -> unit

val send : t -> from:string -> to_:string -> message -> unit

(** Deliver to every other endpoint (subject to partitions). *)
val broadcast : t -> from:string -> message -> unit

(** (sent, delivered, dropped) message counters. *)
val stats : t -> int * int * int
