#!/usr/bin/env python3
"""Build the perfbench harness from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload kv-stream-eager --seed 1 --seconds 10 --trace 0

The harness is built with `cargo build --release --offline` into
`$CARGO_TARGET_DIR` (default `.bench_build`). Build output goes to
stderr, so the last line of stdout is the harness's JSON result. Exits
non-zero, without a result, when the build fails (for instance in a
directory that holds the benchmark but not the crates it measures).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The harness's own watchdog stops a run well before this.
RUN_TIMEOUT_S = 178


def git_revision():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run(
            [binary, *sys.argv[1:], "--git-rev", git_revision()],
            cwd=ROOT,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
