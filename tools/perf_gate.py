#!/usr/bin/env python3
"""Host-time regression gate: a change against its parent, same machine.

    python3 tools/perf_gate.py CHANGE_CHECKOUT PARENT_CHECKOUT

Runs perfbench/run.py on every workload of BENCHMARK.json in both
checkouts, in alternating rounds (the change first in even rounds, the
parent first in odd ones) so host drift hits both sides alike. Each
side's value of a metric is the median over its rounds. The gate fails
when, on any workload, the change's wall_s or peak_rss_mb is worse than
the parent's by more than that metric's BENCHMARK.json bound, or when
the change fails more operations than the parent. The other end-to-end
metrics are reported, not gated.

Only what both checkouts' BENCHMARK.json declare is compared: a
workload the parent does not declare runs in the change alone, and a
metric either side lacks is reported without a verdict, so a change
that adds a workload or a metric to the benchmark still gets a gate.

The report goes to stdout as a Markdown table, is appended to
$GITHUB_STEP_SUMMARY when that is set, and is written with every
per-round value to perf_gate.json in the working directory. Put both
checkouts at paths of equal length: peak RSS moves with the length of
the perfbench work-directory path. The first run in each checkout
builds its perfbench harness.
"""

import json
import os
import statistics
import subprocess
import sys

GATED = ("wall_s", "peak_rss_mb")
ROUNDS = 5
SECONDS_PER_RUN = 5
REPORT = "perf_gate.json"


def run_perfbench(checkout, workload):
    """One run.py invocation; returns its closing JSON result."""
    proc = subprocess.run(
        [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
         "--workload", workload, "--seconds", str(SECONDS_PER_RUN)],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError("perfbench %s failed in %s"
                           % (workload, checkout))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worse_by(metric, change, parent):
    """Relative amount by which `change` is worse than `parent`."""
    if parent == 0:
        return 0.0
    rel = (change - parent) / parent
    return rel if metric["better"] == "lower" else -rel


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: perf_gate.py CHANGE_CHECKOUT PARENT_CHECKOUT")
    sides = {"change": os.path.abspath(sys.argv[1]),
             "parent": os.path.abspath(sys.argv[2])}
    spec = {}
    for side, checkout in sides.items():
        with open(os.path.join(checkout, "BENCHMARK.json")) as f:
            spec[side] = json.load(f)
    workloads = [w["name"] for w in spec["change"]["workloads"]]
    in_parent = {w["name"] for w in spec["parent"]["workloads"]}
    metrics = spec["change"]["end_to_end"]
    parent_metrics = {m["name"] for m in spec["parent"]["end_to_end"]}

    runs = {side: {w: [] for w in workloads} for side in sides}
    for r in range(ROUNDS):
        order = ("change", "parent") if r % 2 == 0 else ("parent", "change")
        for workload in workloads:
            for side in order:
                if side == "parent" and workload not in in_parent:
                    continue
                res = run_perfbench(sides[side], workload)
                runs[side][workload].append(res)
                print("round %d %-6s %-16s wall_s %.4f" % (
                    r + 1, side, workload,
                    res["metrics"]["wall_s"]["value"]), flush=True)

    rows, failures = [], []
    for workload in workloads:
        change_failed = sum(x["failed"] for x in runs["change"][workload])
        parent_failed = sum(x["failed"] for x in runs["parent"][workload])
        if workload in in_parent and change_failed > parent_failed:
            failures.append("%s: %d failed operations (parent %d)"
                            % (workload, change_failed, parent_failed))
        for m in metrics:
            value = {}
            for side in sides:
                values = [x["metrics"][m["name"]]["value"]
                          for x in runs[side][workload]
                          if m["name"] in x["metrics"]]
                value[side] = statistics.median(values) if values else None
            if None in value.values():
                rows.append({"workload": workload, "metric": m["name"],
                             "unit": m["unit"], "parent": value["parent"],
                             "change": value["change"], "worse": None,
                             "bound": m["bound"], "status": "info"})
                continue
            worse = worse_by(m, value["change"], value["parent"])
            status = "info"
            if m["name"] in GATED and m["name"] in parent_metrics:
                status = "ok" if worse <= m["bound"] else "REGRESSION"
            if status == "REGRESSION":
                failures.append(
                    "%s %s: %.6g -> %.6g %s, %.1f%% worse (bound %.0f%%)"
                    % (workload, m["name"], value["parent"],
                       value["change"], m["unit"], worse * 100,
                       m["bound"] * 100))
            rows.append({"workload": workload, "metric": m["name"],
                         "unit": m["unit"], "parent": value["parent"],
                         "change": value["change"], "worse": worse,
                         "bound": m["bound"], "status": status})

    lines = ["### perfbench: change vs parent, median of %d rounds"
             % ROUNDS, "",
             "| workload | metric | parent | change | worse by | bound "
             "| status |", "|---|---|---:|---:|---:|---:|---|"]
    def cell(value, fmt):
        return "n/a" if value is None else fmt % value

    for row in rows:
        worse = None if row["worse"] is None else row["worse"] * 100
        lines.append("| %s | %s (%s) | %s | %s | %s | %.0f%% | %s |"
                     % (row["workload"], row["metric"], row["unit"],
                        cell(row["parent"], "%.6g"),
                        cell(row["change"], "%.6g"),
                        cell(worse, "%+.1f%%"), row["bound"] * 100,
                        row["status"]))
    table = "\n".join(lines) + "\n"
    print(table)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as f:
            f.write(table)
    with open(REPORT, "w") as f:
        json.dump({"rounds": ROUNDS, "seconds_per_run": SECONDS_PER_RUN,
                   "rows": rows, "failures": failures, "runs": runs},
                  f, indent=2)
    if failures:
        print("perf gate FAILED:\n  " + "\n  ".join(failures))
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
