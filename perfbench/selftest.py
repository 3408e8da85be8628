#!/usr/bin/env python3
"""Self-test of the repository benchmark at smoke sizes.

  python3 perfbench/selftest.py

Runs every workload through perfbench/run.py with --smoke, untraced and
traced, and checks that each run passes its correctness gates and prints,
as its last line, a JSON result holding exactly the metrics BENCHMARK.json
declares (end_to_end untraced, per_layer traced) with their units. Also
checks that an unknown workload is refused. Exits non-zero on any failure.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec


def check_result(result, metrics, trace, failures, label):
    def fail(message):
        failures.append("%s: %s" % (label, message))

    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are %s" % sorted(result))
        return
    if result["correct"] is not True:
        fail("correct is %r" % result["correct"])
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted is %r" % result["attempted"])
    if result["failed"] != 0:
        fail("failed is %r" % result["failed"])
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in metrics}
    if set(got) != set(want):
        fail("metric names differ: missing %s, unexpected %s" %
             (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, unit in want.items():
        if name not in got:
            continue
        entry = got[name]
        if entry.get("unit") != unit:
            fail("%s has unit %r, want %r" % (name, entry.get("unit"), unit))
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("%s has value %r" % (name, value))
        elif not trace and value == 0:
            fail("end-to-end metric %s is 0" % name)


def main():
    spec = load_spec()
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            label = "%s trace=%d" % (workload, trace)
            cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
                   "--seconds", "2", "--trace", str(trace), "--smoke"]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  cwd=ROOT, timeout=300)
            lines = done.stdout.strip().split("\n")
            try:
                result = json.loads(lines[-1])
            except ValueError:
                failures.append("%s: last line is not JSON" % label)
                continue
            if done.returncode != 0:
                failures.append("%s: exit code %d" % (label, done.returncode))
            metrics = spec["per_layer"] if trace else spec["end_to_end"]
            check_result(result, metrics, trace, failures, label)
            print("%-28s %s" % (label, "ok" if not any(
                f.startswith(label + ":") for f in failures) else "FAILED"))

    refused = subprocess.run(
        [sys.executable, RUN, "--workload", "no_such_workload"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT)
    if refused.returncode == 0:
        failures.append("an unknown workload was accepted")

    for f in failures:
        print("FAIL " + f)
    print("selftest: %s" % ("passed" if not failures else "FAILED"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
