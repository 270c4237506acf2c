(** Nolan's two-party atomic swap (2013): the original hashlock/timelock
    protocol from the paper's introduction — the two-vertex case of the
    single-leader protocol, with the same crash hazard. *)

type config = Herlihy.config

val default_config : delta:float -> config

(** Launch a two-party swap without running the engine; drive the
    universe and {!Swap_run.finish} it. Raises [Invalid_argument] under
    the same conditions as {!execute}. *)
val launch :
  Universe.t ->
  config:config ->
  graph:Ac3_contract.Ac2t.t ->
  participants:Participant.t list ->
  ?hooks:(string * (unit -> unit)) list ->
  unit ->
  Swap_run.handle

(** Execute a two-party swap. Raises [Invalid_argument] if the graph is
    not a simple two-party swap or if [participants] leaves a vertex
    without an actor. *)
val execute :
  Universe.t ->
  config:config ->
  graph:Ac3_contract.Ac2t.t ->
  participants:Participant.t list ->
  ?hooks:(string * (unit -> unit)) list ->
  unit ->
  Swap_run.result
