#!/usr/bin/env python3
"""Clean-checkout smoke check for the benchmark.

Usage (from the repository root, in a git work tree):

    python3 perfbench/smoke.py [--seconds S]

1. Copies the files git would commit (tracked, plus untracked files
   that are not ignored) into .bench_build/smoke/checkout: what a fresh
   clone of this tree holds. The runner is built there from scratch.
2. Runs every workload named in BENCHMARK.json once, short, with
   --trace 0 and with --trace 1. Each run must exit 0, and its last
   line must be a result with correct=true, failed=0, attempted>=1
   and exactly the metrics BENCHMARK.json names for that mode, each
   with its unit and a finite value. The simulated cycles and stats
   digests must be the same with tracing off and on.
3. Copies only BENCHMARK.json and the benchmark's paths into
   .bench_build/smoke/bare, where run.py must fail without printing a
   result.

Exits 0 when every check holds, 1 otherwise.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE = os.path.join(ROOT, ".bench_build", "smoke")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def copy_files(files, dest):
    for rel in files:
        target = os.path.join(dest, rel)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy2(os.path.join(ROOT, rel), target)


def files_git_would_commit():
    out = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"],
        cwd=ROOT, capture_output=True, check=True).stdout.decode()
    return [f for f in out.split("\0")
            if f and os.path.isfile(os.path.join(ROOT, f))]


def parse_result(stdout):
    """The result object on the last stdout line, or None."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if isinstance(result, dict) else None


def program_lines(stdout):
    return {l for l in stdout.splitlines() if l.startswith("program ")}


def check_result(result, expected):
    """Problems with one run's result against BENCHMARK.json."""
    if result is None:
        return ["no JSON result on the last line"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if result.get("failed") != 0:
        problems.append(f"ops_failed = {result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or \
            result["attempted"] < 1:
        problems.append(f"attempted = {result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append("metrics differ from BENCHMARK.json: missing "
                        f"{sorted(set(expected) - set(metrics))}, extra "
                        f"{sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if not isinstance(m, dict):
            continue
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, want {unit!r}")
        v = m.get("value")
        if isinstance(v, bool) or not isinstance(v, (int, float)) or \
                not math.isfinite(v):
            problems.append(f"{name}: value {v!r}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    units = {mode: {m["name"]: m["unit"] for m in bench[key]}
             for mode, key in (("0", "end_to_end"), ("1", "per_layer"))}

    checkout = fresh_dir(os.path.join(SMOKE, "checkout"))
    copy_files(files_git_would_commit(), checkout)
    failures = 0
    for i, w in enumerate(bench["workloads"]):
        outputs = {}
        for mode in ("0", "1"):
            cmd = bench["command"] + [
                "--workload", w["name"], "--seed", "1",
                "--seconds", str(args.seconds), "--trace", mode]
            # The first run builds from scratch.
            p = subprocess.run(cmd, cwd=checkout, capture_output=True,
                               text=True,
                               timeout=900 if i == 0 and mode == "0"
                               else 180)
            outputs[mode] = p.stdout
            problems = check_result(parse_result(p.stdout), units[mode])
            if p.returncode != 0:
                problems.append(f"exit status {p.returncode}: "
                                f"{p.stderr.strip()[-400:]}")
            status = "ok" if not problems else "FAIL"
            print(f"{status:4s} {w['name']} --trace {mode}", flush=True)
            for problem in problems:
                print(f"     {problem}")
            failures += bool(problems)
        if not program_lines(outputs["0"]) <= program_lines(outputs["1"]):
            print(f"FAIL {w['name']}: simulated results differ between "
                  "--trace 0 and --trace 1")
            failures += 1

    bare = fresh_dir(os.path.join(SMOKE, "bare"))
    copy_files(["BENCHMARK.json"], bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(bench["command"] + [
        "--workload", bench["workloads"][0]["name"], "--seed", "1",
        "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    if p.returncode == 0 or parse_result(p.stdout) is not None:
        print("FAIL bare directory: run.py did not fail without a result")
        failures += 1
    else:
        print(f"ok   bare directory fails with exit status {p.returncode}")

    print("smoke: " + ("all checks passed" if not failures
                       else f"{failures} check(s) failed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
