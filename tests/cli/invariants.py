#!/usr/bin/env python3
"""Modeled-output invariants and failure handling of ditile_run and
ditile_sweep.

    python3 tests/cli/invariants.py ditile_run=PATH ditile_sweep=PATH

The overlap DAG's edges are a subset of the staged DAG's, so the
overlap scheduler never reports a longer makespan than the staged
timeline on a fault-free run or sweep point. Equal sweep points print
equal rows whichever thread ran them, and the workload digest cache
hits. A failing grid point, an invalid link or SIGINT still leave a
CSV with its header, and the sweep says why on stderr. A scale-out
plan replayed over a workload with another snapshot count exits 1.
An unknown accelerator or DiTile variant exits 1 with the catalog's
one message, which lists the valid names. A flag a tool does not
declare (a misspelling) exits 1 naming it, before any work is done.
"""

import csv
import io
import re
import signal

from clitest import digest_hits, main

HEAVY = ["--dataset=WD", "--scale=0.5", "--dis=0.02,0.06,0.10",
         "--snapshots=8,16", "--all-accels"]
# Six equal points run concurrently against the shared plan, digest
# and comm-model caches.
SHARED = ["--dataset=WD", "--scale=0.5", "--dis=" + ",".join(["0.06"] * 6),
          "--snapshots=16", "--all-accels", "--threads=4"]

FAILING_SWEEPS = [  # (args, stdout pattern, stderr pattern), exit 1
    # Killing every tile makes each grid point unsatisfiable.
    (["--dataset=WD", "--scale=0.1", "--dis=0.02", "--snapshots=4",
      "--faults=tile@0:r*c*"], None, r"sweep point failed"),
    # The failing FIRST point (snapshots=8 reaches the snapshot-5
    # kill-all) must not eat the header; the snapshots=4 point stays
    # short of it and still lands after the header.
    (["--dataset=WD", "--scale=0.1", "--dis=0.02", "--snapshots=8,4",
      "--faults=tile@5:r*c*"], r",4,", r"snapshots=8"),
    # A point with an invalid inter-chip link fails on its own.
    (["--chips=2", "--interchip-ns=1e20"], None, r"sweep point failed"),
]

# A plan written for one snapshot count and replayed over another is
# bad input on the scale-out path too: (accel, plan T, workload T),
# exit 1 with the count check's message.
MISMATCHED_PLANS = [("mega", 4, 8), ("mega", 8, 4), ("ditile", 4, 8),
                    ("ditile", 8, 4)]

ACCELS = "ready|booster|race|mega|ditile"
VARIANTS = "full|NoPs|NoWos|NoRa|OnlyPs|OnlyWos|OnlyRa"
UNKNOWN_NAMES = [  # (tool, args, name kind, valid names), exit 1
    ("ditile_run", ["--accel=bogus"], "accelerator", ACCELS),
    ("ditile_inspect", ["plan", "--dump", "--accel=bogus"], "accelerator",
     ACCELS),
    ("ditile_serve", ["--variant=bogus"], "DiTile variant", VARIANTS),
]

UNKNOWN_FLAGS = [  # (tool, args, the undeclared flag), exit 1
    ("ditile_run", ["--acel=race"], "acel"),
    ("ditile_run", ["--dataset=WD", "--all-accels"], "all-accels"),
    ("ditile_sweep", ["--dataset=WD", "--snapshot=4"], "snapshot"),
    ("ditile_sweep", ["--csv"], "csv"),
    ("ditile_inspect", ["plan", "--dump", "--acel=ditile"], "acel"),
    ("ditile_serve", ["--loadgen", "--request=10"], "request"),
]


def rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def not_slower(cli, overlap, staged, what):
    cli.expect(overlap.keys() == staged.keys(), what + ": keys differ")
    worse = [k for k in overlap if overlap[k] > staged[k]]
    cli.expect(not worse, "%s: overlap slower than staged: %s"
               % (what, worse))


def run_overlap_not_slower(cli):
    for snapshots in ("4", "20"):  # 20 wraps the columns
        args = ["--dataset=WD", "--scale=0.1", "--snapshots=" + snapshots,
                "--accel=all", "--csv"]
        overlap, staged = (
            {r["Accelerator"]: int(r["Cycles"])
             for r in rows(cli.run("ditile_run", args + extra).stdout)}
            for extra in ([], ["--no-overlap"]))
        not_slower(cli, overlap, staged, "T=" + snapshots)
    # Both timelines report their schedule.
    for extra in ([], ["--no-overlap"]):
        stats = cli.run("ditile_run",
                        ["--dataset=WD", "--scale=0.1", "--snapshots=4",
                         "--accel=ditile", "--task-stats"] + extra)
        cli.expect("critical path" in stats.stdout,
                   "--task-stats %s prints no critical path" % extra)


def sweep_overlap_not_slower(cli):
    cycles = []
    for extra in ([], ["--no-overlap"]):
        proc = cli.sweep(HEAVY + extra)
        digest_hits(cli, proc.stderr, "heavy sweep %s" % extra)
        cycles.append({(r["dataset"], r["dissimilarity"], r["snapshots"],
                        r["accelerator"]): int(r["cycles"])
                       for r in rows(proc.stdout)})
    cli.expect(len(cycles[0]) == 30, "heavy sweep: %d rows"
               % len(cycles[0]))
    not_slower(cli, cycles[0], cycles[1], "heavy sweep")


def equal_points_equal_rows(cli):
    proc = cli.sweep(SHARED)
    digest_hits(cli, proc.stderr, "shared sweep")
    lines = proc.stdout.splitlines()[1:]
    cli.expect(len(lines) == 30, "shared sweep: %d rows" % len(lines))
    cli.expect(lines == lines[:5] * 6, "equal sweep points differ")


def failing_sweeps(cli):
    for args, out_pattern, err_pattern in FAILING_SWEEPS:
        proc = cli.sweep(args, status=1)
        if out_pattern:
            cli.expect_match(out_pattern, proc.stdout, " ".join(args))
        cli.expect_match(err_pattern, proc.stderr, " ".join(args))


def mismatched_plans(cli):
    base = ["--dataset=WD", "--scale=0.1", "--chips=2"]
    for accel, planned, executed in MISMATCHED_PLANS:
        plan = cli.path("plan-%s-%d.json" % (accel, planned))
        cli.run("ditile_run", base + ["--accel=" + accel,
                                      "--snapshots=%d" % planned,
                                      "--plan-out=" + plan])
        proc = cli.run("ditile_run", base + ["--accel=" + accel,
                                             "--snapshots=%d" % executed,
                                             "--plan-in=" + plan],
                       status=1)
        cli.expect_match(r"plan has %d snapshots, the workload %d"
                         % (planned, executed), proc.stderr,
                         "%s plan T=%d over T=%d" % (accel, planned,
                                                     executed))


def unknown_names(cli):
    for tool, args, what, choices in UNKNOWN_NAMES:
        proc = cli.run(tool, args, status=1)
        cli.expect_match(r"^fatal: unknown %s 'bogus' \(expected %s\)$"
                         % (what, re.escape(choices)), proc.stderr,
                         "%s %s" % (tool, " ".join(args)))


def unknown_flags(cli):
    for tool, args, flag in UNKNOWN_FLAGS:
        proc = cli.run(tool, args, status=1)
        what = "%s %s" % (tool, " ".join(args))
        cli.expect_match(r"^fatal: unknown flag '--%s'$" % re.escape(flag),
                         proc.stderr, what)
        cli.expect(proc.stdout == "", what + " printed before failing")


def sweep_interrupt(cli):
    """SIGINT once the header is out: the point in flight finishes,
    the rest are skipped, and the partial CSV is flushed (exit 130).
    The grid is far longer than signal delivery; skipped points cost
    nothing."""
    grid = ["--dataset=WD", "--scale=0.5", "--snapshots=8,16",
            "--all-accels",
            "--dis=" + ",".join("%.2f" % (0.02 + 0.01 * i)
                                for i in range(10))]
    status, stdout, stderr = cli.interrupt("ditile_sweep", grid,
                                           signal.SIGINT)
    cli.expect(stdout.startswith("dataset,"), "partial CSV lost its header")
    cli.expect(status == 130, "interrupted sweep exited %d" % status)
    cli.expect_match(r"sweep interrupted", stderr, "interrupted sweep")


if __name__ == "__main__":
    raise SystemExit(main([run_overlap_not_slower, sweep_overlap_not_slower,
                           equal_points_equal_rows, failing_sweeps,
                           mismatched_plans, unknown_names,
                           unknown_flags, sweep_interrupt]))
