#!/usr/bin/env python3
"""Compare two result sets written by ``steady.py --out``.

    python3 perfbench/compare.py BASE.json NEW.json

Refuses (exit 2) when the environment stamps differ in anything but the
commit and source digest: results from another rational type, kernel
backend, mpmath backend, interpreter or core count are not comparable.
Otherwise prints, per workload and end-to-end metric, both medians, the
change, and a verdict against the bound in BENCHMARK.json: ``worse`` when
the new median is worse by more than the bound, ``unresolved`` when the
base runs spread wider than the bound, else ``same`` or ``better``.
Exit 1 if any metric is worse.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

IDENTITY_KEYS = ("git_commit", "src_sha256")


def environment(stamp: dict) -> dict:
    return {k: v for k, v in stamp.items() if k not in IDENTITY_KEYS}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.getcwd(), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sets = []
    for path in argv:
        with open(path) as fh:
            sets.append(json.load(fh))
    base, new = sets
    if environment(base["stamp"]) != environment(new["stamp"]):
        print("refusing to compare: environment stamps differ\n"
              f"  base {environment(base['stamp'])}\n"
              f"  new  {environment(new['stamp'])}", file=sys.stderr)
        return 2
    print(f"base {base['stamp'].get('git_commit')} "
          f"new {new['stamp'].get('git_commit')}")
    worse = False
    for w in [x["name"] for x in spec["workloads"]]:
        print(f"\n{w}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            b = [r["metrics"][name] for r in base["runs"]
                 if r["workload"] == w]
            n = [r["metrics"][name] for r in new["runs"]
                 if r["workload"] == w]
            if len(b) < 2 or not n:
                print(f"  {name:<13} not enough runs")
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            change = mn / mb - 1
            if m["better"] == "higher":
                change = -change
            q1, _, q3 = statistics.quantiles(b, n=4)
            if change > bound:
                verdict = "worse"
                worse = True
            elif (q3 - q1) / mb > bound:
                verdict = "unresolved"
            else:
                verdict = "better" if change < 0 else "same"
            print(f"  {name:<13}{mb:>12.5g}{mn:>12.5g}{change:>+9.3f}"
                  f"  bound {bound:.2f}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
