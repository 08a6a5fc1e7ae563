#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload cold_batch --seed 1 --seconds 20 --trace 0

Workloads: cold_batch, daemon_edit, cache_restart. The benchmark is a Cargo
package of its own (perfbench/Cargo.toml) that builds the pipeline crates
from source; the build goes to $CARGO_TARGET_DIR (default perfbench/target).
The program's report is passed through; its last line is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is
non-zero when the build or the run fails, and then no result is printed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cold_batch", "daemon_edit", "cache_restart")
BUILD_TIMEOUT_S = 870
RUN_GRACE_S = 120


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", HERE / "target"))
    build_cmd = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    try:
        build = subprocess.run(build_cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    run_cmd = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", str(target / "perfbench-work"),
    ]
    try:
        run = subprocess.run(
            run_cmd, stdout=subprocess.PIPE, text=True, timeout=args.seconds + RUN_GRACE_S
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    if run.returncode != 0:
        print(f"perfbench: run exited with {run.returncode}", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: the run printed no result", file=sys.stderr)
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
