(* The three benchmark workloads. Each repetition runs in a fresh process
   (main.ml), because the MSS key-material cache and the Ac3_fast.Memo
   tables are process-wide and a CLI user pays for them on every
   invocation. A workload has a set-up phase, which generates its inputs
   from the benchmark seed, and one timed call into the libraries, which
   receive only the generated inputs. *)

module Json = Ac3_crypto.Codec.Json
module Metrics = Ac3_obs.Metrics
module Workload = Ac3_load.Workload
module Load = Ac3_load.Engine
module Plan = Ac3_chaos.Plan
module Runner = Ac3_chaos.Runner
module MC = Ac3_model.Checker
module Universe = Ac3_core.Universe

type size = Full | Smoke

(* --- Spans ------------------------------------------------------------------ *)

(* Benchmark-side spans around each call into a layer, kept in memory
   and written out when the repetition ends. *)
type span = { name : string; parent : string option; start : float; stop : float }

let spans : span list ref = ref []

let span ?parent name f =
  let start = Unix.gettimeofday () in
  let r = f () in
  spans := { name; parent; start; stop = Unix.gettimeofday () } :: !spans;
  r

let span_s name =
  List.fold_left
    (fun acc s -> if String.equal s.name name then acc +. (s.stop -. s.start) else acc)
    0.0 !spans

let spans_json () =
  Json.List
    (List.rev_map
       (fun s ->
         Json.Obj
           [
             ("name", Json.String s.name);
             ("parent", match s.parent with Some p -> Json.String p | None -> Json.Null);
             ("start", Json.Float s.start);
             ("end", Json.Float s.stop);
           ])
       !spans)

(* --- One repetition --------------------------------------------------------- *)

type result = {
  ops : int;  (** swaps launched / protocol runs / product states *)
  attempted : int;
  failed : int;
  checks : (string * bool) list;
  digest : string;  (** must repeat exactly across repetitions *)
  outcome : (string * float) list;  (** deterministic for a seed *)
  layers : (string * float) list;  (** workload-specific per-layer metrics *)
}

(* A workload generates its inputs from [~seed] and returns the timed
   call. *)
type t = seed:int -> traced:bool -> unit -> result

(* Sum of [fields] over every instrument named [name], whatever its
   labels. *)
let registry_sum m name fields =
  match Metrics.to_json m with
  | Json.Obj items ->
      List.fold_left
        (fun acc (key, v) ->
          let base =
            match String.index_opt key '{' with Some i -> String.sub key 0 i | None -> key
          in
          if String.equal base name then
            List.fold_left (fun acc f -> acc +. Json.to_float (Json.member f v)) acc fields
          else acc)
        0.0 items
  | _ -> 0.0

let registry_layers m =
  let counter name = (name, registry_sum m name [ "value" ]) in
  let built = registry_sum m "core.evidence.built" [ "value" ] in
  let decisions =
    registry_sum m "core.witness.decision_latency" [ "count"; "underflow"; "overflow" ]
  in
  [
    counter "chain.block.mined";
    counter "chain.tx.accepted";
    counter "chain.tx.rejected";
    counter "chain.mempool.evicted_overflow";
    counter "chain.reorgs";
    ("core.evidence.built", built);
    ("core.evidence.bytes", registry_sum m "core.evidence.bytes" [ "sum" ]);
    ("core.witness.decisions", decisions);
    ("core.evidence.built_per_decision", if decisions > 0.0 then built /. decisions else 0.0);
  ]

let digest s = Digest.to_hex (Digest.string s)

let median = function [] -> None | xs -> Some (Ac3_sim.Stats.median xs)

(* --- load-open ---------------------------------------------------------------- *)

(* The `ac3 load` defaults: 16 Zipf users, 3 chains plus the witness
   chain, open loop at 1 swap per virtual second, mix 0.5/0.3/0.2, 15%
   abandon. *)
let load_config size =
  { Workload.default with Workload.swaps = (match size with Full -> 3000 | Smoke -> 40) }

let load_open size ~seed ~traced =
  let config = load_config size in
  (* The engine draws specs and arrivals from this stream itself;
     sampling them here validates the config and prices input
     generation. *)
  ignore
    (span ~parent:"setup" "load.sample" (fun () ->
         let rng = Ac3_sim.Rng.create (seed lxor 0x6c6f6164) in
         (Workload.sample_specs config rng, Workload.arrival_offsets config rng)));
  fun () ->
    let report, u =
      span ~parent:"run" "load.run" (fun () ->
          Load.run_universe ~instrument:traced ~seed config)
    in
    let results = report.Load.results in
    let is_ac3wn r = r.Load.spec.Workload.protocol = Workload.Ac3wn in
    let ac3wn_non_atomic =
      List.length (List.filter (fun r -> is_ac3wn r && r.Load.cls = Load.Non_atomic) results)
    in
    let unconserved =
      List.length
        (List.filter (fun (_, e, a) -> Ac3_chain.Amount.compare e a <> 0) (Load.supply_check u))
    in
    let lat = List.filter_map (fun r -> r.Load.latency) results in
    let ac3wn_lat = List.filter_map (fun r -> if is_ac3wn r then r.Load.latency else None) results in
    let p99 = Arith.supported_percentile lat 99.0 in
    let launched = report.Load.launched in
    {
      ops = launched;
      attempted = launched;
      failed =
        report.Load.timed_out + report.Load.in_flight + report.Load.rejected + ac3wn_non_atomic
        + unconserved;
      checks =
        [
          ("ac3wn_atomic", ac3wn_non_atomic = 0);
          ("supply_conserved", unconserved = 0);
        ];
      digest = digest (Load.render report);
      outcome =
        List.filter_map
          (fun (name, v) -> Option.map (fun v -> (name, v)) v)
          [
            ("swap_latency_p50_vs", median lat);
            ("swap_latency_p99_vs", p99);
            ("swap_latency_n", Some (float_of_int (List.length lat)));
            ("ac3wn_latency_p50_vs", median ac3wn_lat);
            ( "non_atomic_frac",
              Some (Arith.failed_frac ~failed:report.Load.non_atomic ~attempted:launched) );
          ];
      layers =
        ("sim.events_executed", float_of_int (Ac3_sim.Engine.executed_events (Universe.engine u)))
        :: (if traced then registry_layers (Universe.metrics u) else []);
    }

(* --- chaos-sweep ---------------------------------------------------------------- *)

(* A traced sweep runs one protocol at a time so that each gets a span;
   every (run, protocol) pair builds its own universe either way, so the
   work equals one three-protocol sweep, and this puts the parts back
   into the summary that sweep would have returned. *)
let combine ~seed ~runs parts =
  let obs = Ac3_obs.Obs.create ~clock:(fun () -> 0.0) () in
  List.iter
    (fun s -> Metrics.merge_into ~into:obs.Ac3_obs.Obs.metrics s.Runner.obs.Ac3_obs.Obs.metrics)
    parts;
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 parts in
  {
    Runner.sweep_seed = seed;
    sweep_runs = runs;
    per_protocol = List.concat_map (fun s -> s.Runner.per_protocol) parts;
    (* Parts come in protocol order, so a stable sort by run restores the
       sweep's (run, protocol) order. *)
    failures =
      List.stable_sort
        (fun a b -> Int.compare a.Runner.fail_seed b.Runner.fail_seed)
        (List.concat_map (fun s -> s.Runner.failures) parts);
    unexplained_failures = sum (fun s -> s.Runner.unexplained_failures);
    interval_violations = sum (fun s -> s.Runner.interval_violations);
    obs;
  }

let chaos_sweep size ~seed ~traced =
  let runs = match size with Full -> 20 | Smoke -> 2 in
  ignore
    (span ~parent:"setup" "chaos.plan_sample" (fun () ->
         List.init runs (fun k -> Plan.sample ~seed:(seed + k) ())));
  fun () ->
    let summary =
      if traced then
        combine ~seed ~runs
          (List.map
             (fun p ->
               span ~parent:"run" ("chaos.run." ^ Runner.protocol_name p) (fun () ->
                   Runner.sweep ~protocols:[ p ] ~jobs:1 ~instrument:true ~seed ~runs ()))
             Runner.all_protocols)
      else Runner.sweep ~jobs:1 ~instrument:false ~seed ~runs ()
    in
    let ac3wn_viol =
      match List.assoc_opt Runner.P_ac3wn summary.Runner.per_protocol with
      | Some c -> c.Runner.violations
      | None -> 0
    in
    let pairs = runs * List.length Runner.all_protocols in
    {
      ops = pairs;
      attempted = pairs;
      failed = summary.Runner.unexplained_failures + summary.Runner.interval_violations + ac3wn_viol;
      checks =
        [
          ("ac3wn_no_violation", ac3wn_viol = 0);
          ("no_unexplained_failure", summary.Runner.unexplained_failures = 0);
          ("no_interval_violation", summary.Runner.interval_violations = 0);
        ];
      digest = digest (Fmt.str "%a" Runner.pp_summary summary);
      outcome = [];
      layers = (if traced then registry_layers summary.Runner.obs.Ac3_obs.Obs.metrics else []);
    }

(* --- model-ring ----------------------------------------------------------------- *)

(* The graph `ac3 check -p ac3wn -s ring` checks; the seed names the
   parties' identities. *)
let model_ring size ~seed ~traced:_ =
  let parties, crash_budget = match size with Full -> (8, 2) | Smoke -> (4, 1) in
  let graph =
    span ~parent:"setup" "model.build" (fun () ->
        let spec =
          { Plan.seed; shape = Plan.Ring; parties; nchains = parties; extra_edges = 0; load = 1 }
        in
        let ids = Ac3_core.Scenarios.identities ~ns:(Printf.sprintf "bench%d" seed) parties in
        Runner.build_graph ~spec ~ids ~timestamp:1.0)
  in
  let config = { MC.default_config with MC.crash_budget; max_nodes = 10_000_000 } in
  fun () ->
    let r =
      span ~parent:"run" "model.check" (fun () -> MC.check ~config ~protocol:MC.Ac3wn ~graph)
    in
    let st = r.MC.stats in
    let ok = MC.ok r && not st.MC.truncated in
    let stats =
      [
        ("model.nodes", float_of_int st.MC.nodes);
        ("model.transitions", float_of_int st.MC.transitions);
        ("model.por_skipped", float_of_int st.MC.por_skipped);
        ("model.peak_frontier", float_of_int st.MC.peak_frontier);
      ]
    in
    {
      ops = st.MC.nodes;
      attempted = 1;
      failed = (if ok then 0 else 1);
      checks = [ ("ac3wn_ok", MC.ok r); ("not_truncated", not st.MC.truncated) ];
      digest = Fmt.str "%a" MC.pp_stats st;
      outcome = [];
      layers = stats;
    }

let find : string -> (size -> t) option = function
  | "load-open" -> Some load_open
  | "chaos-sweep" -> Some chaos_sweep
  | "model-ring" -> Some model_ring
  | _ -> None
