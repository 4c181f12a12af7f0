#!/usr/bin/env python3
"""Wall-clock benchmark of the TurboGraph++ reproduction (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (and the repository's libraries from src/) with CMake on
first use, runs one workload, and passes the benchmark's output through:
the last stdout line is one JSON object with the keys "correct",
"attempted", "failed" and "metrics". Build logs go to stderr.

Workloads: pr-oneshot, bfs-sources, tc-budget, service-mixed.
--smoke runs a tiny graph (for test_smoke.py); its timings mean nothing.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["pr-oneshot", "bfs-sources", "tc-budget", "service-mixed"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr, check=True,
            timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", out, "--target", "tgpp_perfbench", "-j", "4"],
        stdout=sys.stderr, stderr=sys.stderr, check=True,
        timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "tgpp_perfbench")


def git_sha():
    try:
        result = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no src/ next to perfbench/; run from a full checkout",
              file=sys.stderr)
        return 2
    binary = build()

    work_dir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    command = [
        binary,
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--work-dir={work_dir}",
        f"--cache-dir={os.path.join(ROOT, '.bench_cache')}",
        f"--git-sha={git_sha()}",
        f"--smoke={1 if args.smoke else 0}",
    ]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = result.stdout.rstrip("\n").split("\n")
    if result.returncode != 0 or not lines[-1].startswith('{"correct"'):
        sys.stderr.write(result.stdout)
        print(f"perfbench: benchmark exited with {result.returncode}",
              file=sys.stderr)
        return result.returncode or 1
    sys.stdout.write(result.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
