#!/usr/bin/env python3
"""Layer benchmark for tightwp: one run of one workload.

    python3 perfbench/run.py --workload exact-build --seed 1 --seconds 40 \\
        --trace 0

Run it from the root of a checkout; it imports the library from ``src/``.
Each repetition of the workload's fixed job list runs in a fresh
interpreter (worker.py), so every module-level memo starts cold.  The run
repeats the job list while another repetition still fits in ``--seconds``
and reports medians over the repetitions.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
plain and traced repetitions and reports the per-layer metrics of the
traced ones, plus ``trace.overhead`` (traced over plain ``wall_s``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A job fails when it
raises unexpectedly or its output fails its check.  All scratch files live
under ``.perfbench/`` in the checkout; the per-run directory is removed at
exit, and the spans of the latest traced repetition are kept in
``.perfbench/trace/<workload>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench")
WORKLOADS = ["exact-build", "numeric-sweep", "spectrum-mc"]
DEADLINE_S = 170     # the whole run, including set-up probes and checks
SETUP_PROBES = 4     # extra interpreters that only set up, for setup_s

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "job_p50_ms": "ms", "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class RunError(Exception):
    """A worker failed to run; the run prints no result."""


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_ratio", "overhead", "cancel_max")):
        return "ratio"
    if name.endswith("_bits"):
        return "bit"
    return "count"


def spawn(args, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter; return its last JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, WORKER] + args, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker {args[:2]} timed out") from exc
    if proc.returncode != 0:
        raise RunError(f"worker {args[:2]} exited {proc.returncode}: "
                       f"{proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunError(f"worker {args[:2]} printed nothing")
    return json.loads(lines[-1])


def source_digest() -> str:
    """sha256 over the library's source files, for checkouts without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".pyx")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def percentile_90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 \
        else values[0]


def measure(opts, deadline):
    """Set-up probes and repetitions; returns (setups, plain, traced)."""
    common = ["--workload", opts.workload, "--seed", str(opts.seed),
              "--size", opts.size]
    if opts.golden:
        common += ["--golden", os.path.abspath(opts.golden)]
    os.makedirs(WORK, exist_ok=True)
    session = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        if opts.workload == "numeric-sweep":
            store = os.path.join(session, "store")
            spawn(["--mode", "store", "--store", store, "--size", opts.size],
                  deadline)
            common += ["--store", store]
        probes = 0 if opts.trace else SETUP_PROBES
        setups = [spawn(["--mode", "setup", "--t0", repr(time.monotonic())]
                        + common, deadline)
                  for _ in range(probes)]
        plain, traced = [], []
        window = time.monotonic()
        while True:
            trace = opts.trace and len(traced) < len(plain)
            extra = ["--trace", "1", "--spans", os.path.join(
                WORK, "trace", f"{opts.workload}.json")] if trace else []
            start = time.monotonic()
            rep = spawn(["--mode", "rep", "--t0", repr(start)] + common
                        + extra, deadline)
            took = time.monotonic() - start
            (traced if trace else plain).append(rep)
            if plain and (traced or not opts.trace):
                now = time.monotonic()
                if now - window + took > opts.seconds or \
                        now + took > deadline:
                    break
        return setups, plain, traced
    finally:
        shutil.rmtree(session, ignore_errors=True)


def summarize(opts, setups, plain, traced):
    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = [p for r in reps for p in r["problems"]]
    if opts.workload == "numeric-sweep":
        built = max([r["store_writes"] for r in reps]
                    + [r["layers"]["tightpoly.cells_built"] for r in traced])
        if built:
            problems.append(f"numeric-sweep built {built} cells instead of "
                            "loading them from the store")
    if opts.trace:
        names = list(traced[0]["layers"])
        values = {n: statistics.median(r["layers"][n] for r in traced)
                  for n in names}
        values["trace.overhead"] = (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in plain))
        metrics = {n: {"value": v, "unit": layer_unit(n)}
                   for n, v in values.items()}
    else:
        # each job's latency is its median over the run's repetitions;
        # wall_s and the percentiles are taken over those
        lat = [statistics.median(job)
               for job in zip(*(r["latencies_ms"] for r in plain))]
        values = {
            "setup_s": statistics.median(
                [r["setup_s"] for r in setups + plain]),
            "wall_s": sum(lat) / 1e3,
            "job_p50_ms": statistics.median(lat),
            "job_p90_ms": percentile_90(lat),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        }
        metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]}
                   for n, v in values.items()}
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny is the self-test size")
    ap.add_argument("--golden", help="golden values file "
                    "(default: golden.json beside this script)")
    opts = ap.parse_args(argv)

    started = time.monotonic()
    deadline = started + DEADLINE_S
    if not os.path.isdir(os.path.join(ROOT, "src", "tightwp")):
        print(f"perfbench: no src/tightwp under {ROOT}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    try:
        stamp = spawn(["--mode", "probe"], deadline)
        setups, plain, traced = measure(opts, deadline)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    stamp["git_commit"] = git_commit()
    stamp["src_sha256"] = source_digest()
    result, problems = summarize(opts, setups, plain, traced)

    print(f"# stamp {json.dumps(stamp, sort_keys=True)}")
    print(f"# {opts.workload} seed {opts.seed}: {len(plain)} plain and "
          f"{len(traced)} traced repetitions, {result['attempted']} jobs, "
          f"failed_frac {result['failed'] / result['attempted']:.4g}, "
          f"{time.monotonic() - started:.1f} s")
    for p in problems:
        print(f"# problem: {p}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
