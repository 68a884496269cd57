#!/usr/bin/env python3
"""Measures every workload and appends one entry to the trajectory.

Run from the root of a checkout:

    python3 perfbench/trajectory.py --label "<what changed>" [--workloads a,b]

For each workload (default: those in BENCHMARK.json): RUNS untraced runs
on seeds 1..RUNS, then one traced run on seed 1. The entry records, per
workload, each end-to-end metric's median, quartiles and spread
(interquartile range over median), the traced per-layer table, and the
machine: core count, CPU model and the filesystem under `.perfbench/`,
where the daemon's data dir lives (fsync cost depends on it). Entries go to `perfbench/trajectory.json`; a perf
change quotes its before and after from two entries.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# Untraced runs per workload, so that every entry's quartiles are comparable.
RUNS = 10


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(int(trace)),
        ],
        capture_output=True,
        text=True,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed} failed")
    return json.loads(lines[-1])


def filesystem(path):
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    with open("/proc/mounts") as mounts:
        for line in mounts:
            fields = line.split()
            mount, kind = fields[1], fields[2]
            inside = path == mount or path.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) > len(best):
                best, fstype = mount, kind
    return fstype


def cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit():
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--label", required=True)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    out = os.path.join(HERE, "trajectory.json")

    os.makedirs(".perfbench", exist_ok=True)
    entry = {
        "label": args.label,
        "commit": commit(),
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "machine": {
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "data_dir_fs": filesystem(".perfbench"),
        },
        "runs": RUNS,
        "run_seconds": seconds,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        values = {}
        attempted = failed = 0
        for seed in range(1, RUNS + 1):
            result = run(workload, seed, seconds, False)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, (metric["unit"], []))[1].append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        end_to_end = {}
        for name, (unit, xs) in values.items():
            q1, _, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            end_to_end[name] = {
                "unit": unit,
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
                "values": xs,
            }
            print(f"  {workload:14s} {name:28s} median {med:12.5g} {unit:6s} "
                  f"spread {end_to_end[name]['spread']:.4f}")
        traced = run(workload, 1, seconds, True)
        entry["workloads"][workload] = {
            "seeds": f"1..{RUNS}",
            "attempted": attempted,
            "failed": failed,
            "end_to_end": end_to_end,
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
            "per_layer_units": {k: v["unit"] for k, v in traced["metrics"].items()},
        }
    trajectory = []
    if os.path.exists(out):
        with open(out) as f:
            trajectory = json.load(f)
    trajectory.append(entry)
    with open(out, "w") as f:
        json.dump(trajectory, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
