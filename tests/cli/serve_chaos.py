#!/usr/bin/env python3
"""ditile_serve: golden session, counters, overload, signals, and
crash recovery.

    python3 tests/cli/serve_chaos.py ditile_serve=PATH session=PATH \\
        golden=PATH server_cc=PATH

One seeded adversarial workload (malformed lines, out-of-universe
events, live fault splices, overload bursts) is rendered to a script
once; it drives the reference run, the crash/restore and the torn-WAL
checks. Recovered output must be a tail of the uninterrupted run's.
"""

import functools
import os
import re
import signal

from clitest import main, table

CHAOS = ["--tenants=4", "--vertices=64", "--edges=256", "--features=4",
         "--chaos", "--chaos-fault=0.02"]
OVERLOAD = ["--loadgen", "--tenants=4", "--requests=500", "--vertices=96",
            "--edges=320", "--features=4", "--mean-gap-us=3",
            "--queue-capacity=6", "--batch-max=2"]


def serve(cli, args, status=0):
    return cli.run("ditile_serve", args, status=status)


def expect_suffix(cli, what, got, reference):
    """`got` is a non-empty tail of `reference`."""
    lines = got.splitlines(keepends=True)
    cli.expect(lines, what + ": recovered nothing")
    tail = reference.splitlines(keepends=True)[-len(lines):]
    cli.expect_same(what + " (tail of the reference)", got, "".join(tail))


@functools.cache
def chaos(cli):
    """The rendered chaos script, its uninterrupted run with --summary
    and that run's responses (the lines before the summary)."""
    script = cli.path("chaos.txt")
    serve(cli, ["--script-out=" + script, "--requests=600"] + CHAOS)
    cli.expect(open(script).read().count("\n") > 600, "short chaos script")
    ref = serve(cli, ["--script=" + script, "--summary"]).stdout
    return script, ref, ref.split("== serve summary ==")[0]


def golden_session(cli):
    # Responses carry integer modeled costs only, so the golden holds
    # byte for byte on every compiler.
    got = serve(cli, ["--script=" + cli.paths["session"]]).stdout
    cli.expect_same("serve_session responses", got,
                    open(cli.paths["golden"]).read())


def counters(cli):
    """kServeCounters is the one list of serve counters: in script
    and loadgen mode alike every summary row equals its registry row
    (a counter never bumped has no registry row and reads 0)."""
    src = open(cli.paths["server_cc"]).read()
    rows = re.findall(r'"(serve\.[a-z_.]+)",\s*"([^"]+)"\}', src)
    cli.expect(len(rows) == 18, "%d counter rows" % len(rows))
    for args in (["--script=" + cli.paths["session"], "--metrics",
                  "--summary"],
                 ["--loadgen", "--chaos", "--metrics"]):
        cells = table(serve(cli, args).stdout)
        for metric, label in rows:
            cli.expect(cells[label] == cells.get(metric, "0"),
                       "%s: %s=%s, %s=%s" % (args[0], label, cells[label],
                                             metric, cells.get(metric)))


def admission(cli):
    """Bursty arrivals against a tight queue become typed rejections."""
    cli.expect_match(r"rejected \(queue full\) *\| *[1-9]",
                     serve(cli, OVERLOAD).stdout, "overload run")


def sigterm(cli):
    """SIGTERM while blocked on stdin flushes the summary (exit 130)."""
    status, stdout, _ = cli.interrupt(
        "ditile_serve", ["--summary"], signal.SIGTERM, lines=2,
        stdin="tenant a vertices=48 edges=96 features=4\nquery a\n")
    cli.expect(status == 130, "SIGTERM exit %d" % status)
    cli.expect("serve summary" in stdout, "no summary after SIGTERM")


def chaos_reference(cli):
    _, ref, _ = chaos(cli)
    for line in ("ok quit", "err parse:", "err bad-event:"):
        cli.expect(line in ref, "chaos reference lacks " + line)


def crash_restore(cli):
    """The simulated SIGKILL (std::_Exit, nothing flushed) after 300
    lines, restored from checkpoint + WAL, reproduces the run."""
    script, _, ref = chaos(cli)
    wal = ["--script=" + script, "--wal=" + cli.path("chaos.wal"),
           "--checkpoint=" + cli.path("chaos.ckpt")]
    killed = serve(cli, wal + ["--wal-sync=always", "--checkpoint-every=100",
                               "--chaos-kill-after=300"], status=137)
    restored = serve(cli, wal + ["--restore"])
    cli.expect("restored 300 acknowledged line" in restored.stderr,
               "restore did not report 300 acknowledged lines")
    cli.expect_same("crash + restore", killed.stdout + restored.stdout, ref)


def torn_wal(cli):
    """A corrupted WAL tail is truncated with a typed warning."""
    script, _, ref = chaos(cli)
    wal = cli.path("torn.wal")
    serve(cli, ["--script=" + script, "--wal=" + wal, "--wal-sync=always",
                "--chaos-kill-after=200"], status=137)
    os.truncate(wal, os.path.getsize(wal) - 7)
    restored = serve(cli, ["--script=" + script, "--wal=" + wal,
                           "--restore"])
    cli.expect("corrupted/torn tail" in restored.stderr,
               "no torn-tail warning")
    expect_suffix(cli, "torn WAL recovery", restored.stdout, ref)


def sigkill(cli):
    """A real SIGKILL under batched group commit, sent after 5000
    responses (past two checkpoints): recovery keeps the durable
    prefix and re-answers the rest, a suffix of the uninterrupted
    run. The server blocks on its full stdout pipe, so it cannot
    finish before the kill."""
    script = cli.path("big.txt")
    serve(cli, ["--script-out=" + script, "--requests=30000"] + CHAOS)
    ref = serve(cli, ["--script=" + script]).stdout
    durable = ["--script=" + script, "--wal=" + cli.path("big.wal"),
               "--checkpoint=" + cli.path("big.ckpt")]
    status, _, _ = cli.interrupt("ditile_serve",
                                 durable + ["--checkpoint-every=2000"],
                                 signal.SIGKILL, lines=5000)
    cli.expect(status == -signal.SIGKILL, "SIGKILL exit %d" % status)
    restored = serve(cli, durable + ["--restore"])
    expect_suffix(cli, "SIGKILL recovery", restored.stdout, ref)


if __name__ == "__main__":
    raise SystemExit(main([golden_session, counters, admission, sigterm,
                           chaos_reference, crash_restore, torn_wal,
                           sigkill]))
