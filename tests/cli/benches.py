#!/usr/bin/env python3
"""The bench binaries run clean and print what their figures claim.

    python3 tests/cli/benches.py CHECK ditile_inspect=PATH \\
        bench_fig09_exec_time=PATH bench_fig11b_ablation=PATH \\
        bench_scaleout=PATH bench_micro=PATH

Each CHECK (bench_fig09, bench_fig11b, bench_scaleout, bench_micro)
is its own ctest and needs only its own binaries.
"""

import csv
import io
import json
import re

from clitest import digest_hits, main

ABLATION = ["--smoke", "--scale=1.0", "--snapshots=12"]
MICRO = ["BM_SlotScratchKernel", "BM_GenerateDynamicGraph", "BM_EdgeSort",
         "BM_DenseTrafficDrain/256", "BM_DramReplay/1",
         "BM_NocReplay/1/4096", "BM_NocReplay/0/12288", "BM_SpatialWalk",
         "BM_WalAppend", "BM_CheckpointRender", "BM_CheckpointParse",
         "BM_Discretize", "BM_WindowRoll"]


def bench_fig09(cli):
    cli.run("bench_fig09_exec_time", ["--smoke", "--threads=2"])


def bench_fig11b(cli):
    """The ablation's variants share workload digests, and its trace
    and metrics capture works."""
    plain = cli.run("bench_fig11b_ablation", ABLATION)
    digest_hits(cli, plain.stderr, "bench_fig11b")
    trace = cli.path("BENCH_trace.json")
    traced = cli.run("bench_fig11b_ablation",
                     ABLATION + ["--trace=" + trace, "--metrics"])
    cli.expect(json.load(open(trace))["traceEvents"], "empty bench trace")
    cli.expect_match(r"^metric ", traced.stderr, "bench_fig11b --metrics")
    cli.run("ditile_inspect", ["trace", trace])


def bench_scaleout(cli):
    """Weak-scaling efficiency decays monotonically but stays at or
    above 0.15 at 8 chips; wider links make the cluster strictly
    faster and longer latencies strictly slower. The weak and strong
    4-chip rows run one workload, so they and the default-link rows of
    both link sweeps print equal cycles: a run that re-schedules an
    earlier evaluation under another link must time its own link.
    Modeled cycles are hardware-independent, so this holds anywhere."""
    out = cli.run("bench_scaleout", ["--smoke", "--csv"]).stdout
    header = re.search(r"^mode,chips,", out, re.M)
    cli.expect(header, "no scale-out CSV")
    rows = list(csv.DictReader(io.StringIO(out[header.start():])))
    weak = {int(r["chips"]): int(r["cycles"])
            for r in rows if r["mode"] == "weak"}
    cli.expect(sorted(weak) == [1, 2, 4, 8], "weak chips %s" % weak)
    eff = [weak[1] / weak[m] for m in sorted(weak)]
    cli.expect(all(a >= b for a, b in zip(eff, eff[1:])),
               "weak-scaling efficiency not monotone: %s" % eff)
    cli.expect(eff[-1] >= 0.15, "weak-scaling efficiency %.3f at 8 chips"
               % eff[-1])
    bw = [int(r["cycles"]) for r in rows if r["mode"] == "bandwidth"]
    cli.expect(len(bw) == 4 and all(a > b for a, b in zip(bw, bw[1:])),
               "cycles not strictly falling with link bandwidth: %s" % bw)
    lat = [int(r["cycles"]) for r in rows if r["mode"] == "latency"]
    cli.expect(len(lat) == 3 and all(a < b for a, b in zip(lat, lat[1:])),
               "cycles not strictly rising with link latency: %s" % lat)
    default_link = {(r["mode"], r["chips"], r["gbps"], r["latency_ns"]):
                    int(r["cycles"]) for r in rows
                    if r["chips"] == "4" and r["gbps"] == "100"
                    and r["latency_ns"] == "350"}
    cli.expect(len(default_link) == 4
               and len(set(default_link.values())) == 1,
               "4-chip default-link rows differ: %s" % default_link)


def bench_micro(cli):
    """Every micro bench runs; the perf-tracked ones are present."""
    out = cli.run("bench_micro", ["--smoke"]).stdout
    for name in MICRO:
        cli.expect(name in out, name + " missing")


if __name__ == "__main__":
    raise SystemExit(main([bench_fig09, bench_fig11b, bench_scaleout,
                           bench_micro]))
