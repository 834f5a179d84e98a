#!/usr/bin/env python3
"""Builds and runs the ALEX end-to-end benchmark (see README.md).

Usage, from the repository root:

  python3 e2ebench/run.py --workload <batch_nytimes|build_opencyc|serve_nytimes>
                          --seed <n> --seconds <s> --trace <0|1>

The `alex_e2e` binary is built from source with CMake into $CARGO_TARGET_DIR
(default .bench_build) on first use; build output goes to stderr. The last
line of stdout is the result:
  {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
The exit code is non-zero, with no result line, when the build or the run
fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch_nytimes", "build_opencyc", "serve_nytimes")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_group(cmd, timeout, **kwargs):
    """Runs `cmd` in its own process group; on timeout kills the whole group
    (make and compiler children included) and waits for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(out_dir):
    """Configures (once) and builds alex_e2e; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs,
                  "--target", "alex_e2e"])
    for cmd in steps:
        code, _ = run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr,
                            stderr=sys.stderr)
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
    return os.path.join(out_dir, "alex_e2e")


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def parse_result(line):
    """The result object of a result line, or None if it is not one."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build(build_dir())
    except (OSError, subprocess.SubprocessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit()]
    try:
        code, stdout = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                                 text=True)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"run.py: run failed: {e}", file=sys.stderr)
        return 1
    lines = stdout.strip().splitlines()
    result = parse_result(lines[-1]) if lines else None
    if code != 0 or result is None:
        sys.stderr.write(stdout)
        print(f"run.py: alex_e2e exited {code} without a result",
              file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
