#!/usr/bin/env python3
"""Builds and runs the repository benchmark from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

NAME is attack_matrix, defense_matrix or campaignd_jobs. The script builds
the `perfbench` package and the `campaignd` daemon in release mode (into
$CARGO_TARGET_DIR, default `.bench_build`), then runs one workload; its last
line of standard output is the run's JSON result. `--workload all` runs every
workload untraced and then traced, and ends with one combined JSON line whose
metric names are prefixed with the workload. See perfbench/README.md.
"""

import json
import os
import subprocess
import sys

WORKLOADS = ["attack_matrix", "defense_matrix", "campaignd_jobs"]


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "Cargo.toml", "-p", "campaignd"],
    ):
        # Build output goes to stderr: standard output ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            return False
    return True


def option(argv, name, default):
    if name in argv:
        i = argv.index(name)
        if i + 1 < len(argv):
            return argv[i + 1]
    return default


def run_all(exe, daemon, argv):
    seed = option(argv, "--seed", "0")
    seconds = option(argv, "--seconds", "10")
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            cmd = [exe, "--workload", workload, "--seed", seed, "--seconds", seconds,
                   "--trace", trace, "--daemon-bin", daemon]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(out.stdout)
            sys.stdout.flush()
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0:
                status = 1
            if out.returncode not in (0, 1) or not lines:
                combined["correct"] = False
                continue
            result = json.loads(lines[-1])
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined))
    return status


def main(argv):
    if not os.path.isfile(os.path.join("crates", "platform", "Cargo.toml")):
        print("perfbench: run from the repository root; the workspace crates are missing",
              file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(target):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(target, "release", "perfbench")
    daemon = os.path.join(target, "release", "campaignd")
    if option(argv, "--workload", None) == "all":
        return run_all(exe, daemon, argv)
    return subprocess.run([exe, *argv, "--daemon-bin", daemon]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
