#!/usr/bin/env python3
"""Build the LOGRES benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload point-query --seed 1 --seconds 30 --trace 0

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build), then run with the same arguments.
Its standard output ends with one JSON line holding the run's metrics. The
exit status is non-zero when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def pin_to_fastest_cpu() -> None:
    """Confine this process, and so the benchmark it starts, to one CPU: the
    one that runs a short fixed loop fastest.

    On shared virtual machines the vCPUs need not be equally fast: on the
    2-vCPU machine the benchmark was tuned on, one vCPU ran the same set-up
    40% slower than the other and its slowdowns came and went, so a run's
    figures depended on where the scheduler put it.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return
    best = {}
    for _ in range(3):
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            start = time.perf_counter()
            sum(i * i for i in range(200_000))
            elapsed = time.perf_counter() - start
            best[cpu] = min(best.get(cpu, elapsed), elapsed)
    os.sched_setaffinity(0, {min(cpus, key=best.get)})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["point-query", "update-stream", "bulk-derive"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", default=0, type=int, choices=[0, 1])
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    pin_to_fastest_cpu()
    exe = os.path.join(target, "release", "logres-perfbench")
    run = subprocess.run(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        timeout=RUN_TIMEOUT_S)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
