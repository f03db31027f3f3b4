#!/usr/bin/env python3
"""Build the serving benchmark from source and run one workload.

    python3 perfbench/run.py --workload pa_hot --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The binary is built with cargo into
$CARGO_TARGET_DIR (default: .bench_build). The last line of standard
output is the result JSON; with --trace 1 the traced run's spans are
also written under perfbench/out/. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["pa_hot", "pa_churn", "stream_zipf"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    run = subprocess.run(
        [os.path.join(target, "release", "perfbench"),
         "--workload", args.workload,
         "--seed", str(args.seed),
         "--seconds", str(args.seconds),
         "--trace", str(args.trace),
         "--out", os.path.join(HERE, "out")],
        env=env,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
