#!/usr/bin/env python3
"""Build the benchmark runner from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

The runner and the simulator libraries it links are built with CMake
into .bench_build/perfbench, from perfbench/CMakeLists.txt and ../src,
with the build type pinned to Release; the repository's own build files
are not used. The workload then runs in its own process (the runner),
so its peak RSS is its own. Everything the runner prints goes to
standard output unchanged; its last line is the JSON result. With
--trace 1 the spans are also written to
.bench_build/spans/<workload>-seed<N>.json.

Exit status is the runner's: 0 when every program passed its checks.
A failed build exits nonzero without printing a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNNER = os.path.join(BUILD, "perfbench_runner")

# A cold build takes about two minutes on two cores; a run ends by
# itself shortly after --seconds.
BUILD_TIMEOUT_S = 850
RUN_GRACE_S = 140


def build():
    """Configure once, then let CMake bring the runner up to date."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD],
                       stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD, "-j", "2",
                    "--target", "perfbench_runner"],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1,
                    help="feeds the machine seed; 1 is the default, "
                         "2 the held-out check")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    try:
        build()
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [RUNNER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, f"{args.workload}-seed{args.seed}.json")]
    try:
        return subprocess.run(cmd, timeout=args.seconds + RUN_GRACE_S,
                              cwd=ROOT).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: runner timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
