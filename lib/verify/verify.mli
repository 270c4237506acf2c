(** Top-level driver composing the three static passes.

    The preflight entry points are what the [ac3 verify] subcommand runs
    over the built-in scenarios and what the chaos oracle consults to
    explain a violation; the protocol drivers do not run them. *)

module Ac2t = Ac3_contract.Ac2t

(** Pass 1 alone (see {!Graph_lint}). *)
val graph :
  ?profile:Graph_lint.profile -> ?block_capacity:int -> Ac2t.t -> Diagnostic.t list

(** Pass 2 alone (see {!Timelock}). *)
val timelocks :
  graph:Ac2t.t ->
  delta:float ->
  timelock_slack:float ->
  start_time:float ->
  Diagnostic.t list

(** Pass 3 alone (see {!State_machine}); [name] prefixes diagnostic
    locations with the owning contract id. *)
val contract : ?name:string -> State_machine.spec -> Diagnostic.t list

(** Pass 4 alone (see {!Flow_lint}): the economic-safety rules rendered
    from the {!Ac3_flow.Flow} abstract interpretation. *)
val flow :
  ?fault_budget:int ->
  ?econ:Ac3_contract.Econ.t ->
  ?static_races:bool ->
  profile:Ac3_flow.Flow.profile ->
  Ac2t.t ->
  Diagnostic.t list

(** Graph lints under the single-leader profile, the timelock-order
    pass, and the budget-0 flow pass (widened when the timelock pass
    errors): everything that must hold before [Herlihy.execute] (or
    [Nolan.execute]) may touch a chain. Deduplicated. *)
val herlihy_preflight :
  graph:Ac2t.t ->
  delta:float ->
  timelock_slack:float ->
  start_time:float ->
  Diagnostic.t list

(** Graph lints under the witness profile plus the budget-0 flow pass:
    AC3WN has no timelocks, so well-formedness and economics are the
    whole static obligation. Deduplicated. *)
val ac3wn_preflight : graph:Ac2t.t -> Diagnostic.t list

(** Multi-line rendering for error messages and CLI output. *)
val render : Diagnostic.t list -> string
