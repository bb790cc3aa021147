#!/usr/bin/env python3
"""Host-time benchmark of the DiTile-DGNN simulator.

    python3 perfbench/run.py --workload sweep_cold --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 5

Builds perfbench_harness from ../src on first use (into
.bench_build/perfbench), then repeats the workload until --seconds have
passed, at least three times, each repetition in a fresh process so the
process-wide caches start empty and peak RSS is the workload's own.
With --trace 0 the metrics are the end_to_end metrics of
BENCHMARK.json; with --trace 1 they are its per_layer metrics, and
untraced and traced repetitions alternate so that trace.overhead_frac
compares the two within one run. Every value is the median over the
repetitions. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-work")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")

WORKLOADS = ("sweep_cold", "serve_durable", "scaleout_strong")
DEFAULT_SEED = 42  # 7 is held out for checking later claims
MIN_REPS = 3
REP_TIMEOUT_S = 120


def run_build_step(cmd):
    """Run one build command, keeping its output off stdout."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-6000:])
        raise RuntimeError("build step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("simulator sources (src/) not found next to "
                           "perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_build_step(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"])
    run_build_step(["cmake", "--build", BUILD_DIR, "--target",
                    "perfbench_harness", "-j",
                    str(min(4, os.cpu_count() or 1))])


def run_once(workload, seed, traced):
    """One repetition in a fresh harness process."""
    workdir = os.path.join(WORK_DIR,
                           workload + ("-traced" if traced else ""))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [HARNESS, "--workload=" + workload, "--seed=%d" % seed,
           "--workdir=" + workdir]
    if traced:
        cmd.append("--trace")
    spawned = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError("harness exited with status %d"
                           % proc.returncode)
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    # Process spawn to the first timed call: time.monotonic() and the
    # harness's steady_clock both read CLOCK_MONOTONIC.
    rec["setup_s"] = rec["first_call_mono_s"] - spawned
    rec["breakdown"] = proc.stderr
    return rec


def measure(workload, seed, seconds, traced):
    plain, spanned = [], []
    start = time.monotonic()
    while len(plain) < MIN_REPS or time.monotonic() - start < seconds:
        plain.append(run_once(workload, seed, False))
        if traced:
            spanned.append(run_once(workload, seed, True))
    return plain, spanned


def median(recs, key):
    return statistics.median(r[key] for r in recs)


def end_to_end(recs):
    return {
        "setup_s": median(recs, "setup_s"),
        "wall_s": median(recs, "wall_s"),
        "peak_rss_mb": median(recs, "peak_rss_mb"),
        "req_per_s": statistics.median(r["ops"] / r["loop_s"]
                                       for r in recs),
        "query_p50_us": median(recs, "op_p50_us"),
        "query_p99_us": median(recs, "op_p99_us"),
    }


def per_layer(plain, traced):
    names = set()
    for r in traced:
        names.update(r["layers"])
    values = {n: statistics.median(r["layers"].get(n, 0.0) for r in traced)
              for n in names}
    values["trace.overhead_frac"] = (
        median(traced, "wall_s") / median(plain, "wall_s") - 1.0)
    return values


def verdict(recs):
    """Attempted and failed operations, plus the output-hash check."""
    attempted = sum(int(r["attempted"]) for r in recs)
    failed = sum(int(r["failed"]) for r in recs)
    # One seed, one set of modeled outputs: every repetition, traced
    # or not, must produce the same hash.
    hashes = sorted({r["output_hash"] for r in recs})
    attempted += 1
    if len(hashes) != 1:
        failed += 1
    return attempted, failed, hashes


def run_workload(spec, workload, seed, seconds, traced):
    plain, spanned = measure(workload, seed, seconds, traced)
    recs = plain + spanned
    attempted, failed, hashes = verdict(recs)
    if traced:
        values, wanted = per_layer(plain, spanned), spec["per_layer"]
    else:
        values, wanted = end_to_end(plain), spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise RuntimeError("metric %s was not measured" % m["name"])
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    print("perfbench %s seed=%d trace=%d repetitions=%d output_hash=%s"
          % (workload, seed, int(traced), len(recs), ",".join(hashes)))
    print("  checks: %s (%d of %d failed, failed_frac=%.6g)"
          % ("ok" if failed == 0 else "FAILED", failed, attempted,
             failed / attempted))
    for r in recs:
        for failure in r["failures"]:
            print("  failed: " + failure)
    for name, m in metrics.items():
        print("  %-36s %16.6f %s" % (name, m["value"], m["unit"]))
    if traced:
        sys.stderr.write(spanned[-1]["breakdown"])
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the DiTile-DGNN simulator.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        with open(SPEC) as f:
            spec = json.load(f)
        build()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        for workload in workloads:
            result = run_workload(spec, workload, args.seed, args.seconds,
                                  args.trace == 1)
            print(json.dumps(result), flush=True)
    except (OSError, ValueError, KeyError, RuntimeError,
            subprocess.SubprocessError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
