#!/usr/bin/env python3
"""Build the perfbench harness from this checkout's sources and run it.

    python3 perfbench/run.py --workload wfs_serial --seed 1 --seconds 10 --trace 0

Run it from the root of the repository. The first run configures and builds
the harness (and the libraries it links) in .bench_build/; later runs only
rebuild what changed. The harness prints each metric by name with its unit,
and as its last stdout line one JSON object with the keys correct,
attempted, failed and metrics. Full samples, stamps and (with --trace 1) the
recorded spans are written under .bench_build/results/.

Exit codes: 0 when every operation was correct, 1 when one failed, 2 when
the sources or the build are missing or broken.
"""

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
HARNESS = BUILD / "perfbench_harness"
WORKLOADS = ("wfs_serial", "hashjoin_par3", "wfs_replay")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no repository sources under {ROOT}/src; nothing to build")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench_harness",
                  "-j", jobs])
    for step in steps:
        try:
            # Build chatter goes to stderr: stdout carries only the results.
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step {' '.join(step)} failed: {err}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step)} exited with {done.returncode}")


def commit_id():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="flip the reference digest, so every full operation fails its check")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running child before re-raising.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    build()
    command = [str(HARNESS), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", str(BUILD / "results"), "--commit", commit_id()]
    if args.corrupt_reference:
        command.append("--corrupt-reference")
    sys.stdout.flush()
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: harness exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
