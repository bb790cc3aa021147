#!/usr/bin/env python3
"""ditile_sweep writes the same CSV rows at any --threads and grid order.

    python3 tests/cli/sweep_identity.py BUILD/tools/ditile_sweep

Runs one WD dis x T sweep over every accelerator at --threads=1 and at
--threads=4, and once more (serially) with the snapshot list reversed,
so each T=8 point follows its T=16 point instead of leading it. Grid
points share their seed snapshot, load arrays and snapshot plans
through process-wide memos, and with four threads the points race for
them, so the rows must be byte-identical across thread counts; the
reversed grid must give the same rows (sorted, since rows follow grid
order). Exits 1 with a diff-style report on any mismatch.
"""

import subprocess
import sys

GRID = ["--dataset=WD", "--scale=0.25", "--dis=0.02,0.10", "--all-accels"]


def sweep(binary, threads, snapshots):
    args = [binary] + GRID + ["--snapshots=" + snapshots,
                              "--threads=%d" % threads]
    proc = subprocess.run(args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("FAIL: %s exited %d" % (" ".join(args),
                                                 proc.returncode))
    lines = proc.stdout.splitlines()
    if len(lines) < 2 or not lines[0].startswith("dataset,"):
        raise SystemExit("FAIL: %s printed no CSV" % " ".join(args))
    return lines


def expect_same(name, got, want):
    if got == want:
        return True
    print("FAIL: %s differs" % name)
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            print("  line %d:\n    got  %s\n    want %s" % (i, g, w))
    if len(got) != len(want):
        print("  %d lines, want %d" % (len(got), len(want)))
    return False


def main():
    if len(sys.argv) != 2:
        raise SystemExit("usage: sweep_identity.py PATH/TO/ditile_sweep")
    binary = sys.argv[1]
    serial = sweep(binary, 1, "8,16")
    # Two dis values x two T values x five accelerators, plus a header.
    if len(serial) != 1 + 2 * 2 * 5:
        raise SystemExit("FAIL: expected 21 CSV lines, got %d"
                         % len(serial))
    ok = expect_same("--threads=4", sweep(binary, 4, "8,16"), serial)
    reversed_grid = sweep(binary, 1, "16,8")
    ok &= expect_same("--snapshots=16,8 (header)", reversed_grid[:1],
                      serial[:1])
    ok &= expect_same("--snapshots=16,8 (sorted rows)",
                      sorted(reversed_grid[1:]), sorted(serial[1:]))
    if not ok:
        return 1
    print("ok: %d rows identical across threads and grid order"
          % (len(serial) - 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
