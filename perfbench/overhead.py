#!/usr/bin/env python3
"""Tracing overhead of the benchmark, per workload.

Runs each workload twice with the same seed, once untraced and once
traced, and prints traced minus untraced for every end-to-end metric
(both runs print them on their report line). Run from the repository
root:

    python3 perfbench/overhead.py [--seed 1] [--seconds 20] [workload ...]
"""

import argparse
import json
import subprocess
import sys

COMMAND = ["cargo", "run", "--release", "--quiet", "--offline",
           "--manifest-path", "perfbench/Cargo.toml", "--"]
WORKLOADS = ["infer_lenet", "serve_open", "serve_aging", "circuit_tile"]
END_TO_END = ["setup_s", "peak_rss_mb", "cpu_ms_per_op", "rate_per_s"]


def report(workload, seed, seconds, trace):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(COMMAND + args, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("workloads", nargs="*", default=WORKLOADS)
    opts = parser.parse_args()
    for workload in opts.workloads:
        plain = report(workload, opts.seed, opts.seconds, 0)
        traced = report(workload, opts.seed, opts.seconds, 1)
        for name in END_TO_END:
            a, b = plain[name]["value"], traced[name]["value"]
            unit = plain[name]["unit"]
            print(f"{workload:13s} {name:12s} untraced {a:12.5g}  traced {b:12.5g}  "
                  f"traced-untraced {b - a:+.5g} {unit} ({(b - a) / a:+.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
