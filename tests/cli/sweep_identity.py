#!/usr/bin/env python3
"""ditile_sweep writes the same CSV rows at any --threads and grid order.

    python3 tests/cli/sweep_identity.py ditile_sweep=PATH

Runs one WD dis x T sweep over every accelerator at --threads=1 and at
--threads=4, and once more at each width with the snapshot list
reversed, so each T=8 point follows its T=16 point instead of leading
it; then the same for a faulted grid and a two-chip grid. Grid points
share their seed snapshot, load arrays, snapshot plans and snapshot
placements through process-wide memos, and with four threads the
points race for them, so the rows must be byte-identical across thread
counts; the reversed grid must give the same rows (sorted, since rows
follow grid order).
"""

from clitest import main, widths

GRID = ["--dataset=WD", "--scale=0.25", "--dis=0.02,0.10", "--all-accels"]
FAULTS = "--faults=tile@1:r3c*;vlink@0:r1c2;bypass-open@1:c5;dram@2:ch*"


def same_rows_any_order(cli, name, grid):
    _, forward = cli.same_outputs(name, "ditile_sweep",
                                  widths(grid + ["--snapshots=8,16"]))
    lines = forward.splitlines(keepends=True)
    # Two dis values x two T values x five accelerators, plus a header.
    cli.expect(len(lines) == 1 + 2 * 2 * 5,
               "%s: expected 21 CSV lines, got %d" % (name, len(lines)))
    want = "".join(lines[:1] + sorted(lines[1:]))
    for args in widths(grid + ["--snapshots=16,8"]):
        reverse = cli.sweep(args).stdout.splitlines(keepends=True)
        cli.expect_same("%s %s (header, sorted rows)" % (name, args[-1]),
                        "".join(reverse[:1] + sorted(reverse[1:])), want)


def sweep_identity(cli):
    same_rows_any_order(cli, "forward", GRID)


def faulted_sweep_identity(cli):
    same_rows_any_order(cli, "faulted", GRID + [FAULTS])


def chips2_sweep_identity(cli):
    same_rows_any_order(cli, "chips2", GRID + ["--chips=2"])


if __name__ == "__main__":
    raise SystemExit(main([sweep_identity, faulted_sweep_identity,
                           chips2_sweep_identity]))
