#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR, or to
.bench_build when that is unset; cargo's own output goes to stderr, so the
last line on stdout is the benchmark's result line. Exits with the
benchmark's code, or with cargo's when the build fails (as it does in a
directory that holds the benchmark without the crates it measures).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed ({build.returncode})", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(os.path.abspath(target), "release", "perfbench")
    sys.stdout.flush()
    return subprocess.run([binary, *sys.argv[1:]], env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
