#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json once untraced and once traced, each
with one trial on a short horizon, and asserts that the run passes its
correctness checks and prints every metric BENCHMARK.json names, with
that metric's unit. Also asserts that a bad invocation exits non-zero
without a result line. Takes about two minutes; builds first if needed.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Horizons long enough for some downloads to finish (a run with no
# completed download fails its checks) and short enough to stay quick.
SMOKE_SIM_LIMIT_S = {
    "swarm.fig7": 200,
    "swarm.onefile": 60,
}


def run(args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + args,
                          cwd=ROOT, capture_output=True, text=True)


def check_result(proc, expected, label):
    assert proc.returncode == 0, "%s: exit %d\n%s" % (
        label, proc.returncode, proc.stderr[-3000:])
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, label
    assert result["attempted"] >= 1 and result["failed"] == 0, label
    metrics = result["metrics"]
    for m in expected:
        assert m["name"] in metrics, "%s: %s missing" % (label, m["name"])
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], "%s: %s unit %r != %r" % (
            label, m["name"], got["unit"], m["unit"])
        assert isinstance(got["value"], (int, float)), label
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for wl in spec["workloads"]:
        name = wl["name"]
        common = ["--workload", name, "--seed", "1", "--seconds", "1",
                  "--trials", "1", "--sim-limit",
                  str(SMOKE_SIM_LIMIT_S[name])]
        check_result(run(common + ["--trace", "0"]), spec["end_to_end"],
                     name + " untraced")
        check_result(run(common + ["--trace", "1"]), spec["per_layer"],
                     name + " traced")
        print("ok", name, flush=True)
    bad = run(["--workload", "no-such-workload", "--seed", "1",
               "--seconds", "1", "--trace", "0"])
    assert bad.returncode != 0 and bad.stdout.strip() == "", "bad workload"
    print("ok bad-invocation")


if __name__ == "__main__":
    main()
