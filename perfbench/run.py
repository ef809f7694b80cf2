#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `padsimd` daemon from the
repository's workspace and the `perfbench` harness (a package of its
own under perfbench/), both in release mode into $CARGO_TARGET_DIR
(default `.bench_build`), then runs the harness. Build output goes to
stderr; the last line of stdout is the harness's JSON result. Exits
nonzero when a build fails or an output is wrong.

Workloads: sim-long, sim-sweep, daemon-stream, daemon-durable.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "Cargo.toml"),
         "-p", "pad-daemon", "--bin", "padsimd"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        # Keep stdout clean for the result line: cargo's output goes to stderr.
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    harness = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--padsimd", os.path.join(release, "padsimd"),
        "--work-dir", os.path.join(target, "perfbench-work"),
    ]
    return subprocess.run(harness, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
