"""Shared harness of the cli-labelled ctests in this directory.

tests/CMakeLists.txt runs each script as

    python3 tests/cli/SCRIPT.py [CHECK ...] NAME=PATH ...

where NAME=PATH names a built tool or a source file. A script hands
its checks (functions of one Cli) to main(), which runs them (or the
CHECKs named) in a scratch directory, prints "ok"/"FAIL" per check and
exits 1 if any failed. Cli.run checks a tool's exit status,
Cli.same_outputs compares the outputs of invocations that must agree
byte for byte (widths() gives one invocation at --threads=1 and 4),
and Cli.expect_same reports a mismatch as a unified diff.
"""

import difflib
import os
import re
import subprocess
import sys
import tempfile
import threading

THREADS = (1, 4)


class CheckFailed(Exception):
    pass


def widths(args):
    """One invocation at each width in THREADS."""
    return [args + ["--threads=%d" % t] for t in THREADS]


def table(text):
    """The label -> value cells of every two-column `| a | b |` row."""
    cells = {}
    for line in text.splitlines():
        row = [c.strip() for c in line.split("|")]
        if len(row) == 4 and row[1]:
            cells[row[1]] = row[2]
    return cells


def digest_hits(cli, stderr, what):
    """The cache-stats block on stderr shows workload digest hits."""
    m = re.search(r"workload digest cache: (\d+) hits", stderr)
    cli.expect(m, what + ": no digest cache stats")
    cli.expect(int(m.group(1)) > 0, what + ": digest cache never hit")


class Cli:
    def __init__(self, paths, workdir):
        self.paths = paths
        self.workdir = workdir
        self.failed = False

    def path(self, name):
        """A path in the checks' scratch directory."""
        return os.path.join(self.workdir, name)

    def argv(self, tool, args, out):
        return [self.paths[tool]] + [a.replace("{out}", out) for a in args]

    def run(self, tool, args, status=0, out=None):
        """Runs a tool with `{out}` in its args replaced by a scratch
        directory; fails unless it exits with `status`."""
        argv = self.argv(tool, args, out or self.workdir)
        proc = subprocess.run(argv, capture_output=True, text=True)
        if proc.returncode != status:
            sys.stdout.write(proc.stderr[-2000:])
            raise CheckFailed("%s exited %d, want %d"
                              % (" ".join(argv), proc.returncode, status))
        return proc

    def same_outputs(self, name, tool, variants, files=()):
        """Runs `tool` once per args list in `variants`, each with its
        own `{out}` directory; their stdout and each of `files` must be
        byte-identical. Returns the directories and the first stdout."""
        results = []
        for i, args in enumerate(variants):
            out = self.path("%s.%d" % (name, i))
            os.makedirs(out)
            proc = self.run(tool, args, out=out)
            outputs = {f: open(os.path.join(out, f)).read() for f in files}
            results.append((out, dict(outputs, stdout=proc.stdout)))
        base = results[0][1]
        for args, (_, outputs) in zip(variants[1:], results[1:]):
            for key in base:
                self.expect_same("%s %s of %s" % (name, key, " ".join(args)),
                                 outputs[key], base[key])
        return [out for out, _ in results], base["stdout"]

    def interrupt(self, tool, args, sig, lines=1, stdin=""):
        """Starts a tool, reads `lines` lines of its stdout (so it is
        mid-run), sends `sig` and returns (status, stdout, stderr).
        `stdin` is written and held open until the tool exits. Fails if
        the tool's stdout ends first: the signal would then miss."""
        argv = self.argv(tool, args, self.workdir)
        with tempfile.TemporaryFile("w+") as err, subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=err, text=True) as proc:
            watchdog = threading.Timer(120, proc.kill)
            watchdog.start()
            try:
                proc.stdin.write(stdin)
                proc.stdin.flush()
                head = [proc.stdout.readline() for _ in range(lines)]
                self.expect(head[-1], "%s ended before %d line(s) of "
                            "output" % (" ".join(argv), lines))
                proc.send_signal(sig)
                stdout = "".join(head) + proc.stdout.read()
                status = proc.wait()
            finally:
                watchdog.cancel()
                proc.kill()
            err.seek(0)
            return status, stdout, err.read()

    def sweep(self, args, status=0):
        """Runs ditile_sweep; its stdout must be a CSV with the sweep
        header. Returns the process."""
        proc = self.run("ditile_sweep", args, status=status)
        self.expect(proc.stdout.startswith("dataset,"),
                    "ditile_sweep %s printed no CSV header"
                    % " ".join(args))
        return proc

    def expect(self, cond, what):
        if not cond:
            raise CheckFailed(what)

    def expect_match(self, pattern, text, what):
        """`pattern` (a multiline regex) must occur in `text`."""
        self.expect(re.search(pattern, text, re.M),
                    "%s: no line matches %r" % (what, pattern))

    def expect_same(self, name, got, want):
        """Records a failure, with a unified diff, if got != want."""
        if got != want:
            self.failed = True
            print("FAIL: %s differs" % name)
            diff = difflib.unified_diff(want.splitlines(), got.splitlines(),
                                        "want", "got", lineterm="", n=1)
            for line in list(diff)[:40]:
                print("  " + line)


def main(checks):
    """Runs the checks named on the command line (default: all)."""
    names = [a for a in sys.argv[1:] if "=" not in a]
    paths = dict(a.split("=", 1) for a in sys.argv[1:] if "=" in a)
    if names:
        checks = [c for c in checks if c.__name__ in names]
        if len(checks) != len(names):
            raise SystemExit("unknown check in %s" % names)
    failed = 0
    with tempfile.TemporaryDirectory(prefix="ditile-cli-") as workdir:
        cli = Cli(paths, workdir)
        for check in checks:
            cli.failed = False
            try:
                check(cli)
            except CheckFailed as e:
                print("FAIL: %s" % e)
                cli.failed = True
            print("%s: %s" % ("FAIL" if cli.failed else "ok",
                              check.__name__))
            failed += cli.failed
    return 1 if failed else 0

