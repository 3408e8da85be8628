#!/usr/bin/env python3
"""Repository benchmark: builds the runner from source and runs one workload.

Run from the root of a kmeansll source tree:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is train_wide_k, train_sharded_tall, serve_zipf or ingest_live; `all`
runs the four in turn. --smoke runs the same code at tiny sizes. The last
line of standard output is the runner's JSON result (for `all`, one JSON
object per workload, keyed by workload name). The exit code is non-zero
when the build fails, a run fails or a correctness gate fails.

Build outputs, temporary files and traces go to .bench_build/ under the
current directory. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["train_wide_k", "train_sharded_tall", "serve_zipf", "ingest_live"]
RUN_TIMEOUT_S = 175


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_root):
    """Configures and builds the runner; returns its path or None."""
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_root, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "-S", HERE, "-B", build_dir,
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", build_dir, "-j4",
                  "--target", "perfbench_runner"]]
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                log(done.stdout[-4000:])
                log("perfbench: build step failed: " + " ".join(step))
                return None
    return os.path.join(build_dir, "perfbench_runner")


def run_one(runner, build_root, workload, args):
    """Runs one workload; returns (exit code, parsed JSON or None)."""
    cmd = [runner, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_root, "work"),
           "--out-dir", os.path.join(build_root, "traces")]
    if args.smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        # subprocess.run kills the child and waits for it before raising.
        sys.stdout.write(e.stdout or "")
        log("perfbench: %s did not finish within %d s" % (workload,
                                                         RUN_TIMEOUT_S))
        return 1, None
    lines = done.stdout.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        pass
    body = lines[:-1] if result is not None else lines
    if body:
        sys.stdout.write("\n".join(body) + "\n")
    return done.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the self-test")
    args = parser.parse_args()

    build_root = os.path.abspath(".bench_build")
    runner = build(build_root)
    if runner is None:
        return 2

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    status = 0
    for workload in workloads:
        code, result = run_one(runner, build_root, workload, args)
        if result is None:
            log("perfbench: %s printed no result" % workload)
            return code or 1
        results[workload] = result
        if code != 0:
            status = code
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return status


if __name__ == "__main__":
    sys.exit(main())
