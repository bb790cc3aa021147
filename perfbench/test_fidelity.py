#!/usr/bin/env python3
"""Harness fidelity test: the benchmark times the work the real CLIs do.

    python3 perfbench/test_fidelity.py [--seed 42]

Builds perfbench_harness together with ditile_sweep and ditile_serve
in run.py's build tree (.bench_build/perfbench) and checks, for one
seed, that

  - sweep_cold's modeled rows equal the CSV printed by
      ditile_sweep --dataset=WD --scale=0.5 --dis=0.02,0.06,0.10
                   --snapshots=8,16 --all-accels --threads=1 --seed=S
  - serve_durable's rendered script equals
      ditile_serve --script-out=F --seed=S
  - serve_durable's responses equal what
      ditile_serve --script=F --wal=W --wal-sync=off --checkpoint=C
                   --checkpoint-every=1000
    prints for that script.

Exits 0 when every check matches and 1 otherwise.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TOOLS_DIR = os.path.join(BUILD_DIR, "ditile_tools")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-fidelity")


def run(cmd):
    return subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True).stdout


def build():
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run(["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"])
    run(["cmake", "--build", BUILD_DIR, "-j",
         str(min(4, os.cpu_count() or 1)), "--target",
         "perfbench_harness", "ditile_sweep", "ditile_serve"])


def read(path):
    with open(path) as f:
        return f.read()


def harness_dump(workload, seed):
    dump = os.path.join(WORK_DIR, workload + ".out")
    run([os.path.join(BUILD_DIR, "perfbench_harness"),
         "--workload=" + workload, "--seed=%d" % seed,
         "--workdir=" + WORK_DIR, "--dump=" + dump])
    return dump


def same(label, cli, harness):
    if cli == harness:
        print("ok    %s (%d lines)" % (label, cli.count("\n")))
        return True
    cli_lines, harness_lines = cli.splitlines(), harness.splitlines()
    for i, (c, h) in enumerate(zip(cli_lines, harness_lines)):
        if c != h:
            print("FAIL  %s: line %d differs\n  cli:     %s\n  harness: %s"
                  % (label, i + 1, c, h))
            return False
    print("FAIL  %s: %d cli lines vs %d harness lines"
          % (label, len(cli_lines), len(harness_lines)))
    return False


def main():
    parser = argparse.ArgumentParser(
        description="Diff the benchmark's modeled outputs against the CLIs.")
    parser.add_argument("--seed", type=int, default=42)
    seed = parser.parse_args().seed
    build()
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    ok = True

    sweep = read(harness_dump("sweep_cold", seed))
    cli = run([os.path.join(TOOLS_DIR, "ditile_sweep"), "--dataset=WD",
               "--scale=0.5", "--dis=0.02,0.06,0.10", "--snapshots=8,16",
               "--all-accels", "--threads=1", "--seed=%d" % seed])
    ok &= same("sweep_cold rows == ditile_sweep CSV", cli, sweep)

    serve = os.path.join(TOOLS_DIR, "ditile_serve")
    dump = harness_dump("serve_durable", seed)
    script = os.path.join(WORK_DIR, "cli.script")
    run([serve, "--script-out=" + script, "--seed=%d" % seed])
    ok &= same("serve_durable script == ditile_serve --script-out",
               read(script), read(dump + ".script"))
    cli = run([serve, "--script=" + script,
               "--wal=" + os.path.join(WORK_DIR, "cli.wal"),
               "--wal-sync=off",
               "--checkpoint=" + os.path.join(WORK_DIR, "cli.ckpt"),
               "--checkpoint-every=1000"])
    ok &= same("serve_durable responses == ditile_serve --script", cli,
               read(dump))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
