"""Benchmark entry point: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs from the root of a source checkout.  Each workload runs in a fresh
interpreter (perfbench/worker.py) with numpy's thread pools pinned to one
thread, so peak memory and module caches never leak between workloads.
Without tracing, set-up is also timed in SETUP_REPEATS further fresh
interpreters and setup_s is the median.  Prints the worker's summary and, as
the last line, one JSON object with correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 10
CHILD_TIMEOUT_S = 170
# the parent never imports cdcodes, so it names the workloads itself
WORKLOAD_NAMES = ("census", "decompose", "hull", "min_weight")


def child(args, env, timeout):
    """Run worker.py to completion; returns its stdout lines, or exits on failure."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 and not lines:
        sys.exit(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return proc.returncode, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "cdcodes" / "__init__.py").is_file():
        sys.exit(f"no cdcodes sources under {SRC}; run from the root of a source checkout")

    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            _, lines = child(common + ["--seconds", "0", "--setup-only"], env, 60)
            setups.append(json.loads(lines[-1])["setup_s"])
    code, lines = child(
        common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], env, CHILD_TIMEOUT_S
    )
    result = json.loads(lines[-1])
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
