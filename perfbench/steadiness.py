"""Steadiness report: repeated runs of the same code, one per seed.

    python3 perfbench/steadiness.py --workload fuzz-pairs --seeds 1-10 [--sets 2]

Runs perfbench/run.py once per seed (one process at a time) and prints, for
each metric, the median, the quartiles (statistics.quantiles, n=4), the spread
(Q3 - Q1) / median and that spread as a fraction of the metric's bound in
BENCHMARK.json.  With ``--sets 2`` the seeds are run twice and the report adds
how far the second median moved from the first, in the worse direction, as a
fraction of the bound.  The row ``slowdown`` is the host's speed as gauged
inside each run, and the ``raw`` rows are the time metrics before they are
scaled to nominal speed (see run.py); both are held against the bounds only
for scale.  With
``--trace 1`` it reports per-layer values and whether every count read the
same in all runs of one seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    if done.returncode != 0:
        raise SystemExit("seed %d exited %d:\n%s"
                         % (seed, done.returncode, done.stderr))
    *_, context, result = done.stdout.strip().splitlines()
    result = json.loads(result)
    if not result["correct"]:
        print("seed %d: %d of %d ops failed" % (seed, result["failed"],
                                                result["attempted"]))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    context = json.loads(context.partition(":")[2])
    values["slowdown"] = context["slowdown"]
    values.update(("raw " + k, v) for k, v in context["raw"].items())
    return values


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("nan")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    sets = []
    for _ in range(args.sets):
        runs = []
        for seed in seeds:
            runs.append(run_once(args.workload, seed, seconds, args.trace))
            print("seed %d done" % seed, file=sys.stderr, flush=True)
        sets.append(runs)

    if args.trace:
        by_seed = {}
        for runs in sets:
            for seed, values in zip(seeds, runs):
                by_seed.setdefault(seed, []).append(values)
        print("%-46s %14s %s" % ("metric", "median", "counts repeat"))
        for name in sets[0][0]:
            if name == "slowdown" or name.startswith("raw "):
                continue
            values = [r[name] for runs in sets for r in runs]
            is_time = name.endswith("_s")
            same = "" if is_time else str(all(
                len({r[name] for r in rs}) == 1 for rs in by_seed.values()))
            print("%-46s %14.6g %s" % (name, statistics.median(values), same))
        return

    bounds = {m["name"]: m for m in bench["end_to_end"]}
    # the host's drift and the unscaled times, held against the bounds only
    # for scale: they show how much of the spread the scaling removes
    bounds["slowdown"] = {"bound": 0.25, "better": "lower"}
    for name in ("ops_per_s", "op_p50_ms", "op_p95_ms", "setup_s"):
        bounds["raw " + name] = bounds[name]
    print("%s, seeds %s, %d set(s), %gs per run"
          % (args.workload, args.seeds, args.sets, seconds))
    print("%-16s %5s %12s %12s %12s %8s %6s %10s"
          % ("metric", "set", "Q1", "median", "Q3", "spread", "bound",
             "of bound"))
    for name, meta in bounds.items():
        medians = []
        for k, runs in enumerate(sets, 1):
            q1, med, q3, s = spread([r[name] for r in runs])
            medians.append(med)
            print("%-16s %5d %12.6g %12.6g %12.6g %8.4f %6.3f %10.3f"
                  % (name, k, q1, med, q3, s, meta["bound"], s / meta["bound"]))
        if len(medians) > 1:
            worse = (medians[0] - medians[-1] if meta["better"] == "higher"
                     else medians[-1] - medians[0]) / medians[0]
            print("%-16s %5s median moved %+.4f worse = %.3f of bound"
                  % (name, "", worse, worse / meta["bound"]))


if __name__ == "__main__":
    main()
