#!/usr/bin/env python3
"""Builds and runs the AccQOC serving benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <golden_cold|hot_daemon|durable_churn> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the workspace `daemon` binary and the `perfbench` binary (release,
into $CARGO_TARGET_DIR or `.bench_build`), then runs the workload. The
last line of standard output is the result JSON. The hot set's data dir,
per-run scratch and traced span logs live under `.perfbench/`.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    if not (
        os.path.isfile(os.path.join(root, "Cargo.toml"))
        and os.path.isdir(os.path.join(root, "crates"))
    ):
        print("run.py: run from the root of an AccQOC checkout", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-p", "accqoc-server", "--bin", "daemon"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for command in builds:
        # Cargo's output goes to stderr: stdout carries only the result.
        built = subprocess.run(command, cwd=root, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print(f"run.py: `{' '.join(command)}` failed", file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    bench = subprocess.run(
        [
            os.path.join(release, "perfbench"),
            *sys.argv[1:],
            "--daemon",
            os.path.join(release, "daemon"),
            "--work-dir",
            os.path.join(root, ".perfbench"),
        ],
        cwd=root,
    )
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
