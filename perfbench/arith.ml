(* Metric arithmetic shared by the workloads; unit-tested by
   test_perfbench.ml. *)

(* Nearest-rank percentile (Ac3_sim.Stats) and the number of samples
   strictly above it. *)
let percentile_tail xs p =
  let v = Ac3_sim.Stats.percentile xs p in
  (v, List.length (List.filter (fun x -> x > v) xs))

(* A tail percentile is reported only when at least ten samples lie
   beyond it; below that it is one outlier's value, not a percentile. *)
let min_beyond = 10

let supported_percentile xs p =
  let v, beyond = percentile_tail xs p in
  if beyond >= min_beyond then Some v else None

let failed_frac ~failed ~attempted =
  if attempted < 1 then invalid_arg "failed_frac: nothing attempted";
  float_of_int failed /. float_of_int attempted

(* Profile phases are inclusive, so a phase the code only enters from
   inside another profiled phase must not be counted again. [nested]
   lists those phases; the rest are disjoint in time. The result is the
   share of [wall] outside every top-level phase. *)
let unattributed_share ~wall ~nested phases =
  let attributed =
    List.fold_left
      (fun acc (name, s) -> if List.mem name nested then acc else acc +. s)
      0.0 phases
  in
  Float.max 0.0 (1.0 -. (attributed /. wall))

(* The phases this repository's code enters only from inside another
   one. crypto.verify runs inside Ledger.apply_tx, which only
   chain.apply_block, chain.check_tx and chain.select_valid call; the
   few verifications outside the ledger are thereby left unattributed,
   so the share is an upper bound. *)
let nested_phases = [ "crypto.verify" ]
