#!/usr/bin/env python3
"""Reduced-size self-test of the end-to-end benchmark.

Usage, from the repository root:

  python3 e2ebench/selftest.py

Builds alex_e2e (as run.py does), runs every workload at --small sizes in
both modes, and checks each result line: its keys, `correct`, and that its
metrics are exactly BENCHMARK.json's end_to_end (trace 0) or per_layer
(trace 1) names with their units. Then checks that run.py exits non-zero
without a result line in a directory holding only BENCHMARK.json and the
benchmark's files. Takes about a minute once alex_e2e is built.
"""

import json
import os
import shutil
import subprocess
import sys

import run


def check_result(spec, workload, trace, stdout, failures):
    lines = stdout.strip().splitlines()
    result = run.parse_result(lines[-1]) if lines else None
    where = f"{workload} --trace {trace}"
    if result is None:
        failures.append(f"{where}: no result line")
        return
    if result["correct"] is not True:
        failures.append(f"{where}: correct is {result['correct']}: {lines[-2]}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        failures.append(f"{where}: attempted {result['attempted']}")
    expected = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        failures.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got) ^ set(units))}")
    if not trace:
        for name, m in result["metrics"].items():
            if not m["value"] > 0:
                failures.append(f"{where}: {name} is {m['value']}")


def check_bare_directory(out_dir, failures):
    """run.py must fail, printing no result, without the library sources."""
    bare = os.path.join(out_dir, "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, os.path.basename(run.HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.basename(run.HERE), "run.py"),
         "--workload", "batch_nytimes", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and run.parse_result(lines[-1])):
        failures.append("run.py succeeded in a directory without src/")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out_dir = run.build_dir()
    binary = run.build(out_dir)
    failures = []
    # Every workload alex_e2e runs, gated in BENCHMARK.json or not.
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [binary, "--workload", workload, "--small", "--seconds", "2",
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=170)
            if proc.returncode != 0:
                failures.append(f"{workload} --trace {trace}: exit "
                                f"{proc.returncode}: {proc.stderr.strip()}")
                continue
            check_result(spec, workload, trace, proc.stdout, failures)
    check_bare_directory(out_dir, failures)
    for f in failures:
        print("FAIL:", f)
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
