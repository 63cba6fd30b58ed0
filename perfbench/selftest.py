#!/usr/bin/env python3
"""Self-test of the benchmark, at the tiny size of each workload.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that:

1. every workload runs, plain and traced, and reports a correct result with
   all of its metrics;
2. a corrupted golden value makes the run report ``correct: false`` with
   at least one failed job, as a result and not as a crash;
3. in a directory holding only BENCHMARK.json and the benchmark's files,
   the benchmark exits non-zero without printing a result.

Exit 0 when all hold.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench")

# one golden entry per workload that its tiny size checks
CORRUPTIONS = {
    "exact-build": ("cells", "2,1"),
    "numeric-sweep": ("numeric_ref", "mean_2"),
    "spectrum-mc": ("numeric_ref", "count_4"),
}


def bench(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--seconds", "1", "--size", "tiny"] + args,
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)
    failures = []

    def expect(cond, what):
        print(f"{'ok  ' if cond else 'FAIL'} {what}", flush=True)
        if not cond:
            failures.append(what)

    os.makedirs(WORK, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=WORK)
    try:
        for w in CORRUPTIONS:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                code, res, err = bench(["--workload", w, "--seed", "3",
                                        "--trace", str(trace)])
                names = {m["name"] for m in spec[group]}
                expect(code == 0 and res is not None and res["correct"]
                       and set(res["metrics"]) == names,
                       f"{w} trace={trace}: correct, all {group} metrics"
                       + ("" if code == 0 else f" ({err.strip()[-300:]})"))

            section, key = CORRUPTIONS[w]
            bad = json.loads(json.dumps(golden))
            value = bad[section][key]
            bad[section][key] = "0" * len(value) if section == "cells" \
                else str(2 * float(value))
            path = os.path.join(scratch, f"golden-{w}.json")
            with open(path, "w") as fh:
                json.dump(bad, fh)
            code, res, _ = bench(["--workload", w, "--seed", "3",
                                  "--trace", "0", "--golden", path])
            expect(code == 0 and res is not None and not res["correct"]
                   and res["failed"] >= 1,
                   f"{w}: corrupted golden {section}.{key} is reported as "
                   "a failed job")

        bare = os.path.join(scratch, "bare")
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, res, _ = bench(["--workload", "exact-build", "--seed", "3",
                              "--trace", "0"], cwd=bare)
        expect(code != 0 and res is None,
               "without the library the benchmark exits non-zero and "
               "prints no result")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest " + ("passed" if not failures else
                         f"FAILED ({len(failures)})"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
