(** Fault plans: typed, serializable schedules of timed faults, sampled
    from a seeded RNG over randomized universe specs.

    [sample ~seed] is a pure function of the seed — the same seed always
    yields the same spec and plan, and a plan round-trips through JSON
    bit-for-bit, so every chaos run has a replayable reproducer. Fault
    times are virtual seconds relative to plan installation. *)

exception Malformed of string

type shape = Two_party | Ring | Cyclic | Disconnected | Supply_chain | Random

type spec = {
  seed : int;
  shape : shape;
  parties : int;
  nchains : int;
  extra_edges : int;  (** ring chords (Random shape only), 0..{!max_extra_edges} *)
  load : int;
      (** concurrent background two-party swaps sharing the universe
          with the protocol under test (>= 1; 1 = just that protocol).
          Absent in older reproducer JSON, which parses as 1. *)
}

val shape_to_string : shape -> string

val shape_of_string : string -> shape

(** ["c0"; "c1"; ...] — the spec's asset chains (the universe adds an
    implicit ["witness"] chain on top). *)
val chain_names : spec -> string list

(** Asset chains plus ["witness"]: everything a fault may target. *)
val fault_chains : spec -> string list

type fault =
  | Crash of { party : int; at : float }
  | Restart of { party : int; at : float }
  | Partition of { chain : string; at : float; duration : float; cut : int }
  | Delay of { chain : string; at : float; duration : float; factor : float }
  | Drop of { chain : string; at : float; duration : float; p : float }
  | Mining_stall of { chain : string; at : float; duration : float }
  | Mining_burst of { chain : string; at : float; blocks : int }
  | Witness_outage of { at : float; duration : float }

type t = fault list

val time_of_fault : fault -> float

val sort_by_time : t -> t

(** Latest virtual time (relative) at which a sampled fault may fire. *)
val horizon : float

(** Deterministically sample a universe spec and a fault plan from the
    seed. [load] (default 1) is an orthogonal knob layered onto the
    sampled spec — it never perturbs the seed's spec or fault stream. *)
val sample : ?load:int -> seed:int -> unit -> spec * t

(** Most ring chords a spec may ask for. The sampler draws 0-3; the cap
    keeps a hand-edited spec within the parties' one-time signatures. *)
val max_extra_edges : int

(** {2 JSON} — deterministic, diffable; parsing raises {!Malformed} or
    {!Ac3_crypto.Codec.Decode_error}. Besides structure, parsing rejects
    values the injector cannot honour: a negative [party]; an [at] or
    [duration] that is negative or not finite; [p] outside [0, 1]; a
    [factor] that is not finite and positive; [cut] < 1; [blocks] < 0;
    and a spec outside its shape's arity or the ranges above. *)

val spec_to_json : spec -> Ac3_crypto.Codec.Json.t

val spec_of_json : Ac3_crypto.Codec.Json.t -> spec

val fault_to_json : fault -> Ac3_crypto.Codec.Json.t

val fault_of_json : Ac3_crypto.Codec.Json.t -> fault

val to_json : t -> Ac3_crypto.Codec.Json.t

val of_json : Ac3_crypto.Codec.Json.t -> t

val to_string : t -> string

val of_string : string -> t

val pp_fault : Format.formatter -> fault -> unit

val pp : Format.formatter -> t -> unit

val pp_spec : Format.formatter -> spec -> unit
