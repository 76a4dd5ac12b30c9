#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `perfbench` package (perfbench/Cargo.toml) in release mode
into $CARGO_TARGET_DIR (default: .bench_build), then runs it with the
given arguments. The last line of standard output is the JSON result;
build output goes to standard error. Traced runs (--trace 1) also write
their spans to perfbench/out/<workload>-seed<N>.jsonl.

Exits non-zero, printing no result, when the build fails, a correctness
check fails, or the run exceeds RUN_TIMEOUT_S.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:] + ["--spans-dir", os.path.join(HERE, "out")]
    try:
        run = subprocess.run([exe] + args, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
