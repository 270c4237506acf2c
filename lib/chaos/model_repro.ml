(* Concretize model-checker counterexamples into replayable chaos
   reproducers.

   The checker's schedules are untimed event orders; the plan language
   is timed faults. Only the fault moves need concretizing — the
   conforming protocol moves happen on their own once the simulator
   runs. A schedule's "crash P after its deploys, before its redeems"
   becomes [Plan.Crash { party; at }] for a concrete [at]: we try a
   small ladder of times (fractions of the universe's Δ after protocol
   start) and keep the first plan whose dynamic run the oracle flags as
   an atomicity violation. The runner is deterministic, so the final
   reproducer — whose expectations are the actual verdicts of a fresh
   [run_all] — replays bit-identically: [Repro.replay_ok] holds by
   construction. *)

module Checker = Ac3_model.Checker
module Semantics = Ac3_model.Semantics

type outcome = {
  repro : Repro.t;
  confirmed : bool;
  attempts : int;  (** dynamic runs spent searching for a confirming time *)
}

let runner_protocol = function
  | Checker.Herlihy -> Runner.P_herlihy
  | Checker.Nolan -> Runner.P_nolan
  | Checker.Ac3wn -> Runner.P_ac3wn

let crash_parties schedule =
  List.filter_map (function Semantics.Crash p -> Some p | _ -> None) schedule

(* Candidate crash offsets as multiples of Δ past protocol start,
   mid-protocol first: late enough that the victim has deployed, early
   enough that it has not yet redeemed. *)
let fractions = [ 3.0; 2.5; 3.5; 2.0; 4.0; 5.0; 1.5 ]

let violates ~spec ~protocol plan =
  let report = Runner.run_one ~spec ~plan ~protocol () in
  match report.Runner.exec with
  | Runner.Verdict v -> v.Oracle.deposit_lost
  | Runner.Rejected _ | Runner.Skipped _ -> false

let concretize ?(note = "model-checker counterexample") ~spec ~protocol ~schedule () =
  let target = runner_protocol protocol in
  let universe, _, _, _ = Runner.build_universe ~spec () in
  let delta = Ac3_core.Universe.max_delta universe in
  let parties = crash_parties schedule in
  let plan_at frac = List.map (fun p -> Plan.Crash { party = p; at = frac *. delta }) parties in
  let rec search attempts = function
    | [] -> (None, attempts)
    | frac :: rest ->
        let plan = plan_at frac in
        if violates ~spec ~protocol:target plan then (Some plan, attempts + 1)
        else search (attempts + 1) rest
  in
  let found, attempts = if parties = [] then (None, 0) else search 0 fractions in
  let confirmed = found <> None in
  (* Fall back to the first candidate: the reproducer still replays
     deterministically, its expectations just record a clean run. *)
  let plan =
    match found with
    | Some plan -> plan
    | None -> ( match fractions with f :: _ when parties <> [] -> plan_at f | _ -> [])
  in
  let reports = Runner.run_all ~spec ~plan () in
  let note = if confirmed then note ^ " (dynamically confirmed)" else note in
  { repro = Repro.of_reports ~note ~spec ~plan reports; confirmed; attempts }
