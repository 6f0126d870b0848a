#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and compare them.

Usage, from anywhere:

    python3 tools/perf_pairs.py --parent ../parent --change . \\
        --workload point-query --seeds 9401-9410 --seconds 30

Each pair runs `perfbench/run.py` once in each checkout with the same seed,
the parent first in even pairs and the change first in odd ones. Every
checkout builds into its own CARGO_TARGET_DIR (`<checkout>/.bench_build`, or
`<target-root>/parent` and `<target-root>/change`). The script stops at the
first run that fails, reports `correct: false` or counts a failed op.

For every metric the runs report, it prints each side's median and
quartiles, how many pairs the change won (ties count for neither side), and
two verdicts:

* `gain`: the rule for claiming a gain in a small sandbox: the change wins
  at least nine tenths of the pairs, and the medians differ, in the better
  direction, by more than the distance between the parent's quartiles;
* `bound`: for a metric with a regression bound in BENCHMARK.json, whether
  the change's median is no worse than the parent's by more than the bound
  (a fraction of the parent's median).

Which direction is better, and each bound, come from the change checkout's
BENCHMARK.json; a metric it does not list counts lower-is-better.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def parse_seeds(text):
    """`1,2,5-8` -> [1, 2, 5, 6, 7, 8]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(xs):
    """(first quartile, median, third quartile) of a non-empty sample."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def run_once(checkout, target, args, seed):
    """One benchmark run; returns its parsed JSON line."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perf_pairs: run failed in {checkout} (seed {seed}, "
                 f"exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def metric_rules(checkout):
    """metric name -> (lower is better, bound or None), from BENCHMARK.json."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rules = {}
    for m in spec.get("end_to_end", []) + spec.get("per_layer", []):
        rules[m["name"]] = (m.get("better", "lower") == "lower", m.get("bound"))
    return rules


def compare(runs, rules):
    """One report row per metric: medians, quartiles, wins and verdicts."""
    rows = []
    names = sorted(set(runs[0]["parent"]) & set(runs[0]["change"]))
    for name in names:
        lower, bound = rules.get(name, (True, None))
        pairs = [(r["parent"][name]["value"], r["change"][name]["value"]) for r in runs]
        parent = quartiles([p for p, _ in pairs])
        change = quartiles([c for _, c in pairs])
        wins = sum((c < p) if lower else (c > p) for p, c in pairs)
        gap = (parent[1] - change[1]) if lower else (change[1] - parent[1])
        gain = wins * 10 >= 9 * len(pairs) and gap > parent[2] - parent[0]
        within = None if bound is None else -gap <= bound * abs(parent[1])
        rows.append({
            "metric": name,
            "unit": runs[0]["parent"][name].get("unit", ""),
            "parent": parent,
            "change": change,
            "wins": wins,
            "pairs": len(pairs),
            "gain": gain,
            "within_bound": within,
        })
    return rows


def render(rows, workload):
    fmt = "{:<36} {:>30} {:>30} {:>7} {:>5} {:>6}"
    print(f"workload {workload}")
    print(fmt.format("metric", "parent median [q1, q3]", "change median [q1, q3]",
                     "wins", "gain", "bound"))
    for r in rows:
        side = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
        bound = {None: "-", True: "ok", False: "WORSE"}[r["within_bound"]]
        print(fmt.format(f"{r['metric']} ({r['unit']})", side(r["parent"]), side(r["change"]),
                         f"{r['wins']}/{r['pairs']}", "yes" if r["gain"] else "no", bound))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="one seed per pair: a list such as 1,2,5-8")
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", default=0, type=int, choices=[0, 1])
    parser.add_argument("--target-root",
                        help="build into <root>/parent and <root>/change "
                             "instead of each checkout's .bench_build")
    parser.add_argument("--json", help="also write every run and the report here")
    args = parser.parse_args()

    checkouts = {s: os.path.abspath(getattr(args, s)) for s in SIDES}
    targets = {s: os.path.join(os.path.abspath(args.target_root), s) if args.target_root
               else os.path.join(checkouts[s], ".bench_build") for s in SIDES}
    runs = []
    for i, seed in enumerate(args.seeds):
        pair = {}
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            out = run_once(checkouts[side], targets[side], args, seed)
            metrics = {k: v for k, v in out["metrics"].items() if v.get("value") is not None}
            print(f"pair {i + 1} seed {seed} {side}: correct={out['correct']} "
                  f"failed={out['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(metrics.items())),
                  file=sys.stderr, flush=True)
            if not out["correct"] or out["failed"] > 0:
                sys.exit(f"perf_pairs: {side} run with seed {seed} was not correct "
                         f"(correct={out['correct']}, failed={out['failed']})")
            pair[side] = metrics
        runs.append(pair)

    rows = compare(runs, metric_rules(checkouts["change"]))
    render(rows, args.workload)
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "seeds": args.seeds, "runs": runs, "report": rows}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
