#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload capture-stream --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the `perfbench` package (its own
Cargo workspace, depending on the repository's crates by path) in
release mode, runs one workload, and prints the benchmark's result
object as the last line of standard output. Exits non-zero, without a
result, when the build fails, and non-zero when any output check fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
RUN_TIMEOUT_S = 170


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(ROOT, target, "release", "perfbench")


def rustc_version():
    try:
        return subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    except OSError:
        return "unknown"


def commit():
    """The git commit, or "unknown" outside a git checkout."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return head.stdout.strip() if head.returncode == 0 and head.stdout.strip() else "unknown"


def main():
    binary = build()
    args = sys.argv[1:] + [
        "--out", os.path.join(HERE, "out"),
        "--rustc", rustc_version(),
        "--commit", commit(),
    ]
    try:
        done = subprocess.run(
            [binary] + args, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
            text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if lines:
        print(lines[-1], flush=True)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
