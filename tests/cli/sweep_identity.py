#!/usr/bin/env python3
"""ditile_sweep writes the same CSV rows at any --threads and grid order.

    python3 tests/cli/sweep_identity.py ditile_sweep=PATH

Runs one WD dis x T sweep over every accelerator at --threads=1 and at
--threads=4, and once more (serially) with the snapshot list reversed,
so each T=8 point follows its T=16 point instead of leading it. Grid
points share their seed snapshot, load arrays and snapshot plans
through process-wide memos, and with four threads the points race for
them, so the rows must be byte-identical across thread counts; the
reversed grid must give the same rows (sorted, since rows follow grid
order).
"""

from clitest import main, widths

GRID = ["--dataset=WD", "--scale=0.25", "--dis=0.02,0.10", "--all-accels"]


def sweep_identity(cli):
    _, forward = cli.same_outputs("forward", "ditile_sweep",
                                  widths(GRID + ["--snapshots=8,16"]))
    lines = forward.splitlines(keepends=True)
    # Two dis values x two T values x five accelerators, plus a header.
    cli.expect(len(lines) == 1 + 2 * 2 * 5,
               "expected 21 CSV lines, got %d" % len(lines))
    reverse = cli.sweep(GRID + ["--snapshots=16,8", "--threads=1"]).stdout
    reverse = reverse.splitlines(keepends=True)
    cli.expect_same("--snapshots=16,8 (header, sorted rows)",
                    "".join(reverse[:1] + sorted(reverse[1:])),
                    "".join(lines[:1] + sorted(lines[1:])))


if __name__ == "__main__":
    raise SystemExit(main([sweep_identity]))
