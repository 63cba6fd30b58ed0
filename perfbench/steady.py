#!/usr/bin/env python3
"""Steadiness report: run each workload on several seeds and print, per
end-to-end metric, the median, the quartiles and the spread.

    python3 perfbench/steady.py [--workloads exact-build,...] [--runs 10]
        [--first-seed 1] [--sets 1] [--out results.json]

The spread is (Q3 - Q1) / median over the runs, with the quartiles of
``statistics.quantiles(values, n=4)``.  A metric is steady when its spread
stays below a third of its bound in BENCHMARK.json (``setup_s`` is exempt
from the spread rule).  The suggested bound is three times the largest
spread seen over the workloads, rounded up to a hundredth and capped at
0.25; ``setup_s`` gets the largest bound of all.  With ``--sets 2`` the
seed list runs twice and the drift of the second median against the first
is reported too, since a bound must also cover that drift.

Run from the root of a checkout.  ``--out`` keeps every run's metrics and
environment stamp, for compare.py.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MAX_BOUND = 0.25


def load_spec():
    with open(os.path.join(os.getcwd(), "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"({proc.returncode}): {proc.stderr[-2000:]}")
    stamp = None
    for line in lines:
        if line.startswith("# stamp "):
            stamp = json.loads(line[len("# stamp "):])
    result = json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "stamp": stamp,
            "correct": result["correct"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def report(spec, runs, sets):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = {name: 0.0 for name in bounds}
    ok = True
    for w in dict.fromkeys(r["workload"] for r in runs):
        print(f"\n{w}")
        print(f"  {'metric':<13}{'median':>12}{'Q1':>12}{'Q3':>12}"
              f"{'spread':>9}{'bound':>8}{'drift':>9}  verdict")
        for name, bound in bounds.items():
            per_set = [[r["metrics"][name] for r in runs
                        if r["workload"] == w and r["set"] == k]
                       for k in range(sets)]
            values = [v for s in per_set for v in s]
            q1, med, q3, sp = spread(values)
            worst[name] = max(worst[name], sp)
            drift = ""
            verdict = "ok"
            if name != "setup_s" and sp >= bound / 3:
                verdict = "spread above bound/3"
                ok = ok and sp < bound
            if sets > 1:
                first = statistics.median(per_set[0])
                change = statistics.median(per_set[1]) / first - 1
                drift = f"{change:+.3f}"
                if change > bound:
                    verdict = "drift above bound"
                    ok = False
            print(f"  {name:<13}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                  f"{sp:>9.4f}{bound:>8.2f}{drift:>9}  {verdict}")
    suggested = {n: min(MAX_BOUND, max(0.01, math.ceil(300 * s) / 100))
                 for n, s in worst.items()}
    if "setup_s" in suggested:
        suggested["setup_s"] = max(suggested.values())
    print("\nsuggested bounds (3 x largest spread, at most 0.25; setup_s "
          "the largest):")
    for name, b in suggested.items():
        print(f"  {name:<13}{b:.2f}   (BENCHMARK.json: {bounds[name]})")
    bad = [r for r in runs if not r["correct"]]
    for r in bad:
        print(f"incorrect: {r['workload']} seed {r['seed']}, "
              f"{r['failed']} failed jobs")
    return ok and not bad


def main(argv=None):
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out")
    opts = ap.parse_args(argv)

    runs = []
    for k in range(opts.sets):
        for w in opts.workloads.split(","):
            for seed in range(opts.first_seed, opts.first_seed + opts.runs):
                r = run_once(w, seed, opts.seconds)
                r["set"] = k
                runs.append(r)
                print(f"set {k} {w} seed {seed}: " + ", ".join(
                    f"{n}={v:.5g}" for n, v in r["metrics"].items()),
                    flush=True)
    stamps = {json.dumps(r["stamp"], sort_keys=True) for r in runs}
    if len(stamps) > 1:
        raise SystemExit("environment stamps differ between runs")
    if opts.out:
        with open(opts.out, "w") as fh:
            json.dump({"stamp": runs[0]["stamp"], "runs": runs}, fh,
                      indent=1)
    return 0 if report(spec, runs, opts.sets) else 1


if __name__ == "__main__":
    sys.exit(main())
