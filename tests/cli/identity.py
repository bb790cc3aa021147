#!/usr/bin/env python3
"""Outputs that must not move a byte: across --threads, across a plan
round trip, and across options that must not change results.

    python3 tests/cli/identity.py ditile_run=PATH ditile_sweep=PATH \\
        ditile_inspect=PATH ditile_serve=PATH

The invocations of each IDENTICAL row (most run one command at
--threads=1 and 4) print the same stdout and write the same files; a
row's validator then checks what they wrote. Each ROUND_TRIPS plan,
written by --plan-out and replayed by --plan-in, gives the same CSV.
Invalid inter-chip links are typed errors; no plan here holds a null.
"""

import glob
import json
import os

from clitest import main, table, widths

RUN = ["--dataset=WD", "--scale=0.1", "--snapshots=4"]
SWEEP = ["--dataset=WD", "--scale=0.1", "--dis=0.02,0.10",
         "--snapshots=4", "--all-accels"]
FAULTS = "--faults=tile@1:r3c*;vlink@0:r1c2;bypass-open@1:c5;dram@2:ch*"
# At 20 snapshots the columns wrap, so the replayed staged graph holds
# the column-chain barrier edges.
STAGED = ["--dataset=WD", "--scale=0.1", "--snapshots=20", "--no-overlap"]
DITILE = ["--accel=ditile", "--csv"]
ALL = ["--accel=all", "--csv"]


def trace_schema(cli, dirs, _):
    """A Chrome trace on the virtual clock covering every stage."""
    path = os.path.join(dirs[0], "trace.json")
    doc = json.load(open(path))
    cli.expect(doc["displayTimeUnit"] == "ns", "displayTimeUnit")
    cli.expect(doc["otherData"]["clock"] == "virtual-cycles", "clock")
    events = doc["traceEvents"]
    cli.expect(events, "empty trace")
    cats = set()
    for e in events:
        cli.expect({"ph", "pid", "tid"} <= e.keys(), e)
        if e["ph"] == "M":
            continue
        cli.expect({"ts", "name", "cat"} <= e.keys(), e)
        cats.add(e["cat"])
        cli.expect(e["ph"] != "X" or "dur" in e, e)
        cli.expect(e["ph"] != "i" or e["s"] == "t", e)
    missing = {"plan", "engine", "noc", "dram", "cache"} - cats
    cli.expect(not missing, "missing categories: %s" % missing)
    cli.run("ditile_inspect", ["trace", path])


def sidecar_header(cli, dirs, _):
    with open(os.path.join(dirs[0], "metrics.csv")) as f:
        cli.expect(f.readline().startswith("dataset,"),
                   "metrics sidecar has no header")


def plan_dump(cli, dirs, _):
    """The dumps at both widths diff clean field by field."""
    a, b = (os.path.join(d, "plan.json") for d in (dirs[0], dirs[-1]))
    cli.run("ditile_inspect", ["plan", "--diff", a, b])
    cli.expect("null" not in open(a).read(), "the plan dump holds null")


def task_dump(cli, dirs, _):
    doc = json.load(open(os.path.join(dirs[0], "tasks.json")))
    cli.expect(doc["tasks"] > 0 and doc["edges"] > 0, "empty task graph")
    cli.expect(doc["makespan"] == max(t["finish"] for t in doc["schedule"]),
               "makespan is not the last finish")
    cli.expect(any(t["critical"] for t in doc["schedule"]),
               "no critical task")


def scaleout_trace(cli, dirs, _):
    """Cluster spans present; no track carries two DRAM streams of
    one snapshot (every run has its own track groups)."""
    path = os.path.join(dirs[0], "trace.json")
    events = json.load(open(path))["traceEvents"]
    cli.expect(any(e["name"] == "interchip-comm" for e in events),
               "no interchip-comm span")
    streams = [(e["tid"], e["args"]["snapshot"]) for e in events
               if e["name"] == "dram-stream"]
    cli.expect(len(streams) == len(set(streams)),
               "two dram-stream spans share a track and snapshot")


def loadgen(cli, _, stdout):
    """Queries completed; the outcome memo answered every repeat, so
    the engine ran at most once per predicted plan miss."""
    cli.expect_match(r"sustained QPS", stdout, "loadgen")
    cli.expect_match(r"completed queries *\| *[1-9]", stdout, "loadgen")
    cells = table(stdout)
    runs = int(cells["engine.runs"])
    misses = int(cells["serve.plan_misses"])
    cli.expect(runs <= misses, "engine.runs %d > serve.plan_misses %d"
               % (runs, misses))
    cli.expect(int(cells["cache.result.hits"]) > 0, "memo never hit")


IDENTICAL = [  # (name, tool, invocations that agree, files, validator)
    ("sweep", "ditile_sweep", widths(SWEEP), [], None),
    ("sweep_observed", "ditile_sweep", widths(
        SWEEP + ["--trace={out}/trace.json", "--metrics={out}/metrics.csv"]),
     ["metrics.csv"], sidecar_header),
    ("traced_run", "ditile_run", widths(
        RUN + ["--accel=all", "--trace={out}/trace.json", "--metrics"]),
     ["trace.json"], trace_schema),
    ("faulted_run", "ditile_run", widths(RUN + DITILE + [FAULTS]), [], None),
    ("resilience", "ditile_inspect", widths(["resilience"] + RUN + [FAULTS]),
     [], None),
    ("plan_dump", "ditile_inspect", widths(
        ["plan", "--dump={out}/plan.json"] + RUN + ["--accel=ditile"]),
     ["plan.json"], plan_dump),
    ("task_dump", "ditile_inspect", widths(
        ["plan", "--tasks={out}/tasks.json"] + RUN + ["--accel=ditile"]),
     ["tasks.json"], task_dump),
    ("mapping", "ditile_inspect", widths(["mapping"] + RUN), [], None),
    ("chips2", "ditile_run", widths(RUN + DITILE + ["--chips=2"]), [], None),
    ("chips4", "ditile_run", widths(RUN + DITILE + ["--chips=4"]), [], None),
    ("scaleout_trace", "ditile_run", widths(
        ["--dataset=WD", "--scale=0.1", "--snapshots=3", "--accel=all",
         "--chips=2", "--trace={out}/trace.json", "--metrics"]),
     ["trace.json"], scaleout_trace),
    ("loadgen", "ditile_serve", widths(["--loadgen", "--metrics"]), [],
     loadgen),
    ("tracing_csv", "ditile_run", [RUN + ALL, RUN + ALL + [
        "--trace={out}/trace.json", "--metrics"]], [], None),
    ("empty_faults", "ditile_run", [RUN + DITILE, RUN + DITILE + ["--faults="]],
     [], None),
    ("chips1", "ditile_run", [RUN + ALL, RUN + ALL + ["--chips=1"]], [], None),
    # --chips=1 keeps the plan single-chip (format 2, for old readers).
    ("chips1_plan", "ditile_run",
     [RUN + DITILE + ["--plan-out={out}/run.plan.json"],
      RUN + DITILE + ["--chips=1", "--plan-out={out}/run.plan.json"]],
     ["run.plan.json"], None),
]

ROUND_TRIPS = [  # (name, planning args, replay args, plan must hold)
    ("format2", RUN + DITILE, RUN + ["--csv"], ['"plan_format":2']),
    ("staged", STAGED + DITILE, STAGED + ["--csv"], []),
    # A scale-out plan replays without re-specifying --chips.
    ("format3", RUN + DITILE + ["--chips=2"], RUN + ["--csv"],
     ['"plan_format":3', '"scaleout":{"chips":2']),
    # Every ReaDy set is all(n) and each MEGA snapshot's layers share
    # one list; both write out as full id lists.
    ("ready", RUN + ["--accel=ready", "--csv"], RUN + ["--csv"],
     ['"accelerator":"ReaDy"']),
    ("mega", RUN + ["--accel=mega", "--csv"], RUN + ["--csv"],
     ['"accelerator":"MEGA"']),
]

BAD_LINKS = ["--interchip-gbps=0", "--interchip-ns=nan",
             "--interchip-gbps=inf"]


def round_trips(cli):
    for name, plan_args, replay_args, markers in ROUND_TRIPS:
        plan = cli.path(name + ".plan.json")
        direct = cli.run("ditile_run", plan_args + ["--plan-out=" + plan])
        replay = cli.run("ditile_run", replay_args + ["--plan-in=" + plan])
        cli.expect_same(name + " replayed CSV", replay.stdout,
                        direct.stdout)
        text = open(plan).read()
        for marker in markers:
            cli.expect(marker in text, "%s plan lacks %s" % (name, marker))


def bad_links(cli):
    """Exit 1 with a typed "fatal:" line, never an abort; an infinite
    bandwidth is rejected before --plan-out writes."""
    for flag in BAD_LINKS:
        proc = cli.run("ditile_run",
                       ["--dataset=WD", "--scale=0.05", "--snapshots=4",
                        "--chips=2", flag, "--csv",
                        "--plan-out={out}/bad_link.plan.json"], status=1)
        cli.expect_match(r"^fatal: inter-chip", proc.stderr, flag)


def no_null(cli):
    """The plan writer refuses NaN/Inf instead of writing null."""
    plans = glob.glob(cli.path("**/*.plan.json"), recursive=True)
    cli.expect(len(plans) >= 5, "only %d plans written" % len(plans))
    for plan in plans:
        cli.expect("null" not in open(plan).read(), plan + " holds null")


def identical(name, tool, invocations, files, validator):
    def check(cli):
        dirs, stdout = cli.same_outputs(name, tool, invocations, files)
        if validator:
            validator(cli, dirs, stdout)
    check.__name__ = name
    return check


if __name__ == "__main__":
    raise SystemExit(main([identical(*row) for row in IDENTICAL] +
                          [round_trips, bad_links, no_null]))
