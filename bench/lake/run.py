#!/usr/bin/env python3
"""Builds lakebench from source and runs one workload.

Usage, from the root of the repository:

    python3 bench/lake/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds the `lakebench` target into build/lake (build output
goes to stderr), then runs it. The program prints every metric as
`name value unit`; its last line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics` (end-to-end metrics, or
per-layer metrics with --trace 1). Exits with lakebench's exit code, or
nonzero without a result when the build fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build", "lake")
# The run itself must end within 180 s; a build may take longer.
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.exit("lakebench: the repository sources are not next to bench/lake")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "-j4", "--target", "lakebench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("lakebench: build failed: " + " ".join(step))


def git_sha():
    # Only ask git inside a git checkout, so it never searches parents.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    command = [
        os.path.join(BUILD, "lakebench"),
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%g" % args.seconds,
        "--out=" + os.path.join(BUILD, "out"),
        "--git-sha=" + git_sha(),
    ]
    if args.trace:
        command.append("--trace")
    sys.stdout.flush()
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("lakebench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
