#!/usr/bin/env python3
"""Benchmark of the AC3WN simulator: load-open, chaos-sweep and model-ring.

Run from the repository root:

    python3 perfbench/run.py --workload load-open --seed 7 --seconds 32 --trace 0

Builds perfbench/main.exe with dune. A seed names a fixed set of inputs,
its parts (PARTS below); each repetition runs one part in a fresh
process, because the simulator's key and memo caches are process-wide
and a CLI user pays for them on every run. The parts are run in turn,
each at least once, until --seconds have passed. Every repetition is
checked (see perfbench/README.md). The output names every metric with
its unit; the last line is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. Exit code 0 when every check
passed, 1 when a check failed, 2 when the benchmark could not run.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
OUT_DIR = os.path.join("perfbench", "_out")
# Parts per seed. One 3000-swap universe or one 20-run sweep costs 10-15%
# more or less from one seed to the next, so a seed stands for several of
# them and the figures sum over its parts; the model checker explores the
# same states whatever the seed.
PARTS = {"load-open": 5, "chaos-sweep": 3, "model-ring": 1}
# Part i of seed s runs the libraries at seed s + i * PART_STRIDE, so part
# 0 is what `ac3 load --seed s --swaps 3000` or `ac3 chaos --seed s
# --runs 20` runs, and no two parts share a chaos plan (plan k of a sweep
# at seed s is seeded s + k).
PART_STRIDE = 1_000_000
# What ops_per_s counts on each workload, by the name perfbench/layers.json uses.
THROUGHPUT = {"load-open": "swaps_per_s", "chaos-sweep": "runs_per_s", "model-ring": "states_per_s"}
# Set-up-only processes per run, on top of the one set-up every repetition has.
SETUP_PROBES = 10
REP_TIMEOUT_S = 120


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run from the repository root (dune-project and lib/ are missing)")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("dune build did not run: %s" % e)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        die("dune build failed")


def rep(workload, seed, *flags):
    t0 = time.time()
    try:
        r = subprocess.run(
            [EXE, workload, "--seed", str(seed), "--t0", repr(t0), *flags],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s repetition timed out" % workload)
    if r.returncode != 0 or not r.stdout.strip():
        sys.stderr.write(r.stderr)
        die("%s repetition exited with %d" % (workload, r.returncode))
    return json.loads(r.stdout.strip().splitlines()[-1])


def fingerprint():
    """Host and source identity: results compare only on one host."""
    rev = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath("."):
            rev = lines[1]
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for d, dirs, files in os.walk(top):
            dirs[:] = sorted(x for x in dirs if not x.startswith("_"))
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(path.encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(hashlib.sha256(f.read()).digest())
    return {"nproc": len(os.sched_getaffinity(0)), "git_rev": rev, "source_sha256": h.hexdigest()}


def measure(workload, seeds, seconds, trace):
    """Repetitions of each part, plain and (with trace) traced, keyed by
    the part's seed. Every part runs once; then the parts run in turn
    while the next repetition is expected to end within --seconds."""
    plain = {s: [] for s in seeds}
    traced = {s: [] for s in seeds}
    took = []
    start = time.monotonic()
    k = 0
    while k < len(seeds) or time.monotonic() - start + statistics.median(took) <= seconds:
        s = seeds[k % len(seeds)]
        t = time.monotonic()
        plain[s].append(rep(workload, s))
        if trace:
            traced[s].append(rep(workload, s, "--traced"))
        took.append(time.monotonic() - t)
        k += 1
    probes = [rep(workload, seeds[i % len(seeds)], "--setup-only") for i in range(SETUP_PROBES)]
    return plain, traced, probes


def checks(reps):
    """Names of the checks that failed among one part's repetitions, and
    whether the repetitions repeat the first one's outputs."""
    bad = {k for r in reps for k, ok in r["checks"].items() if not ok}
    keys = ("digest", "outcome", "ops", "attempted", "failed")
    repeat = all(r[k] == reps[0][k] for r in reps for k in keys)
    return bad, repeat


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(PARTS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bench = spec()
    build()
    host = fingerprint()
    # The traced run profiles part 0 only: its per-layer figures describe
    # one universe (one sweep), not a sum over several.
    nparts = 1 if args.trace else PARTS[args.workload]
    seeds = [args.seed + i * PART_STRIDE for i in range(nparts)]
    plain, traced, probes = measure(args.workload, seeds, args.seconds, args.trace == 1)
    first = {s: plain[s][0] for s in seeds}
    f0 = first[seeds[0]]
    host.update(shani=f0["shani"], ocaml=f0["ocaml"])

    # Each part's figure is the median over its repetitions; a seed's
    # wall time is the sum over its parts.
    walls = {s: statistics.median(r["wall_s"] for r in plain[s]) for s in seeds}
    wall = sum(walls.values())
    reps = [r for s in seeds for r in plain[s] + traced[s]]
    e2e = {
        "setup_s": statistics.median(r["setup_s"] for r in reps + probes),
        "wall_s": wall,
        "ops_per_s": sum(first[s]["ops"] for s in seeds) / wall,
        "peak_heap_mb": statistics.median(
            statistics.median(r["peak_heap_mb"] for r in plain[s]) for s in seeds),
    }
    layers = {}
    if args.trace:
        t0 = traced[seeds[0]]
        for name in t0[0]["layers"]:
            layers[name] = statistics.median(r["layers"][name] for r in t0)
        traced_wall = statistics.median(r["wall_s"] for r in t0)
        layers["trace_overhead_pct"] = (traced_wall / wall - 1.0) * 100.0

    # Operations count once per part; a part whose repetitions do not
    # repeat its outputs fails all of its operations.
    bad, attempted, failed = set(), 0, 0
    for s in seeds:
        part_bad, repeat = checks(plain[s] + traced[s])
        bad |= part_bad
        attempted += first[s]["attempted"]
        failed += first[s]["failed"] if repeat else first[s]["attempted"]
        if not repeat:
            bad.add("outputs_repeat")
    bad = sorted(bad)

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    print("host: " + json.dumps(host, sort_keys=True))
    print("workload %s seed %d: %d part(s) %s, %d repetition(s), %d traced, %d set-up probe(s)"
          % (args.workload, args.seed, nparts, seeds, sum(len(v) for v in plain.values()),
             sum(len(v) for v in traced.values()), len(probes)))
    for name, v in e2e.items():
        print("  %-24s %.6g %s" % (name, v, units[name]))
    print("  %-24s %.6g 1/s" % (THROUGHPUT[args.workload], e2e["ops_per_s"]))
    print("  %-24s %.6g %s  (%d of %d)" % ("failed_frac", failed / attempted,
                                          units["failed_frac"], failed, attempted))
    for name, v in f0["outcome"].items():
        print("  %-24s %.6g %s  (part 0)" % (name, v, units["outcome." + name]))
    for name, v in layers.items():
        print("  %-40s %.6g %s" % (name, v, units[name]))
    print("  checks: " + ("all passed" if not bad else "FAILED " + ", ".join(bad)))

    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(out, "w") as f:
        json.dump({"host": host, "workload": args.workload, "seed": args.seed,
                   "end_to_end": e2e, "per_layer": layers,
                   "parts": [{"seed": s, "repetitions": plain[s], "traced": traced[s]}
                             for s in seeds],
                   "setup_probes": probes}, f, indent=1)

    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    values = layers if args.trace else e2e
    if sorted(wanted) != sorted(values):
        die("metrics %s do not match BENCHMARK.json %s" % (sorted(values), sorted(wanted)))
    metrics = {n: {"value": values[n], "unit": units[n]} for n in wanted}
    print(json.dumps({"correct": not bad, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
