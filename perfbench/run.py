#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (the dapes library from
src/ plus the perfbench binary) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs one workload in one process. The
binary's stdout is passed through; its last line is the result JSON.
Extra flags (--trials, --sim-limit) go to the binary unchanged.

Exits non-zero, printing no result, when the build fails (for example in
a directory without the sources), the binary fails a check, or the run
exceeds its time limit.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main(argv):
    out = build_dir()
    if not build(out):
        return 2
    binary = os.path.join(out, "perfbench")
    cmd = [binary] + argv + ["--out-dir", os.path.join(os.path.dirname(out),
                                                       "perfbench-out")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("run.py: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        ok = False
    if not ok or proc.returncode != 0:
        sys.stderr.write(stdout)
        sys.stderr.write("run.py: perfbench exited %d%s\n" % (
            proc.returncode, "" if ok else " without a result line"))
        return proc.returncode or 4
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
