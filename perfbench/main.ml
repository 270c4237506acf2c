(* One repetition of one benchmark workload, in this process; prints one
   JSON line. run.py starts a fresh process per repetition.

     main.exe WORKLOAD --seed N --t0 EPOCH_S [--traced] [--setup-only]

   --t0 is the wall-clock time at which the caller started this process,
   so setup_s counts process start-up too. --traced turns on
   Ac3_fast.Profile and the universes' instruments and reports per-layer
   metrics; --setup-only stops before the timed call. *)

module Json = Ac3_crypto.Codec.Json
module Profile = Ac3_fast.Profile
module W = Perfbench.Workloads
module Arith = Perfbench.Arith

let profile_phases =
  [
    "crypto.keygen"; "crypto.sign"; "crypto.verify"; "chain.mine"; "chain.check_tx";
    "chain.select_valid"; "chain.apply_block";
  ]

(* Benchmark spans reported as <name>.s. *)
let span_layers =
  [
    "load.sample"; "load.run"; "chaos.plan_sample"; "chaos.run.nolan"; "chaos.run.herlihy";
    "chaos.run.ac3wn"; "model.check";
  ]

(* Layers a workload reports only when it reaches them; the others read
   0 there. *)
let optional_layers =
  [
    "chain.block.mined"; "chain.tx.accepted"; "chain.tx.rejected";
    "chain.mempool.evicted_overflow"; "chain.reorgs"; "core.evidence.built";
    "core.evidence.bytes"; "core.witness.decisions"; "core.evidence.built_per_decision";
    "sim.events_executed"; "model.nodes"; "model.transitions"; "model.por_skipped";
    "model.peak_frontier";
  ]

(* The virtual-time outcomes of load-open, reported as outcome.<name>:
   deterministic for a seed, so a performance change must leave them
   unchanged. *)
let outcome_names =
  [
    "swap_latency_p50_vs"; "swap_latency_p99_vs"; "swap_latency_n"; "ac3wn_latency_p50_vs";
    "non_atomic_frac";
  ]

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6

let per_layer ~wall ~(before : Gc.stat) ~(after : Gc.stat) (r : W.result) =
  let rows = Profile.report () in
  let phase name =
    match List.find_opt (fun (n, _, _) -> String.equal n name) rows with
    | Some (_, calls, s) -> (float_of_int calls, s)
    | None -> (0.0, 0.0)
  in
  let profile =
    List.concat_map
      (fun name ->
        let calls, s = phase name in
        [ (name ^ ".s", s); (name ^ ".calls", calls) ])
      profile_phases
  in
  let reached name = List.assoc_opt name r.W.layers in
  let optional = List.map (fun n -> (n, Option.value (reached n) ~default:0.0)) optional_layers in
  let events = Option.value (reached "sim.events_executed") ~default:0.0 in
  profile
  @ List.map (fun n -> (n ^ ".s", W.span_s n)) span_layers
  @ optional
  @ List.map
      (fun n -> ("outcome." ^ n, Option.value (List.assoc_opt n r.W.outcome) ~default:0.0))
      outcome_names
  @ [
      ("failed_frac", Arith.failed_frac ~failed:r.W.failed ~attempted:r.W.attempted);
      ("sim.events_per_s", events /. wall);
      ("gc.minor_words", after.Gc.minor_words -. before.Gc.minor_words);
      ("gc.promoted_words", after.Gc.promoted_words -. before.Gc.promoted_words);
      ( "gc.major_collections",
        float_of_int (after.Gc.major_collections - before.Gc.major_collections) );
      ("gc.top_heap_mb", mb after.Gc.top_heap_words);
      ( "unattributed_share",
        Arith.unattributed_share ~wall ~nested:Arith.nested_phases
          (List.map (fun n -> (n, snd (phase n))) profile_phases) );
    ]

let floats kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) kvs)

let usage () =
  prerr_endline "usage: main.exe WORKLOAD --seed N --t0 EPOCH_S [--traced] [--setup-only]";
  exit 2

let () =
  let workload, seed, t0, traced, setup_only =
    match Array.to_list Sys.argv with
    | _ :: name :: rest -> (
        let rec go (seed, t0, traced, setup_only) = function
          | [] -> (seed, t0, traced, setup_only)
          | "--seed" :: v :: tl -> go (int_of_string_opt v, t0, traced, setup_only) tl
          | "--t0" :: v :: tl -> go (seed, float_of_string_opt v, traced, setup_only) tl
          | "--traced" :: tl -> go (seed, t0, true, setup_only) tl
          | "--setup-only" :: tl -> go (seed, t0, traced, true) tl
          | _ -> usage ()
        in
        match (W.find name, go (None, None, false, false) rest) with
        | Some w, (Some seed, Some t0, traced, setup_only) -> (w, seed, t0, traced, setup_only)
        | _ -> usage ())
    | _ -> usage ()
  in
  if traced then Profile.enable ();
  let timed = W.span "setup" (fun () -> workload W.Full ~seed ~traced) in
  let setup_s = Unix.gettimeofday () -. t0 in
  let common = [ ("setup_s", Json.Float setup_s) ] in
  if setup_only then print_endline (Json.to_string (Json.Obj common))
  else begin
    Profile.reset ();
    let before = Gc.quick_stat () in
    let start = Unix.gettimeofday () in
    let r = W.span "run" timed in
    let wall = Unix.gettimeofday () -. start in
    let after = Gc.quick_stat () in
    let fields =
      common
      @ [
          ("wall_s", Json.Float wall);
          ("ops", Json.Int r.W.ops);
          ("peak_heap_mb", Json.Float (mb after.Gc.top_heap_words));
          ("attempted", Json.Int r.W.attempted);
          ("failed", Json.Int r.W.failed);
          ("checks", Json.Obj (List.map (fun (k, ok) -> (k, Json.Bool ok)) r.W.checks));
          ("digest", Json.String r.W.digest);
          ("outcome", floats r.W.outcome);
          ("shani", Json.Bool (Ac3_crypto.Sha256.shani_available ()));
          ("ocaml", Json.String Sys.ocaml_version);
        ]
      @
      if traced then
        [ ("layers", floats (per_layer ~wall ~before ~after r)); ("spans", W.spans_json ()) ]
      else []
    in
    print_endline (Json.to_string (Json.Obj fields))
  end
