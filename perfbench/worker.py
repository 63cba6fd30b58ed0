"""One repetition of a workload in a fresh interpreter.

Started by run.py from the root of a checkout; imports the library from
``src/`` of that checkout and nothing else.  Modes:

  probe   import the library and print the environment stamp
  store   write the cells numeric-sweep reads into --store
  setup   import, make the inputs, compute the constants, then stop
  rep     setup, the timed job list, then the output checks

``rep`` prints one JSON line.  ``setup_s`` runs from ``--t0`` (the parent's
``time.monotonic()`` just before it started this process; the clock is
system-wide) to the start of the first job.  With ``--trace 1`` the public
functions are wrapped (see spans.py) and the per-layer metrics are added.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import sys
import tempfile
import time
import warnings

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")


def import_library():
    """Import tightwp from this checkout's src/, or exit 2."""
    sys.path.insert(0, SRC)
    try:
        import tightwp
    except ImportError as exc:
        print(f"perfbench: cannot import tightwp from {SRC}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    where = os.path.realpath(tightwp.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        print(f"perfbench: tightwp imported from {where}, not from {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return tightwp


def stamp() -> dict:
    """What decides which code path is live: backends, interpreter, cores."""
    import mpmath
    import tightwp
    from tightwp import ring

    return {
        "rational": f"{ring.Rational.__module__}.{ring.Rational.__name__}",
        "kernel_backend": getattr(tightwp, "KERNEL_BACKEND", None),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def store_files(path) -> int:
    count = 0
    for _dirpath, _dirs, files in os.walk(path):
        count += sum(1 for f in files if f.endswith(".twp"))
    return count


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", required=True,
                    choices=["probe", "store", "setup", "rep"])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--size", default="full")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t0", type=float, default=None)
    ap.add_argument("--store")
    ap.add_argument("--golden")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    import_library()
    if args.mode == "probe":
        print(json.dumps(stamp()))
        return 0

    import workloads

    if args.mode == "store":
        workloads.build_store(args.store, args.size)
        print(json.dumps({"cells": store_files(args.store)}))
        return 0

    from tightwp import intersection, moments, tightpoly

    # run isolation: a fresh interpreter starts with every memo empty
    if intersection.cache_size() != 0 or getattr(tightpoly, "_cells", {}):
        print("perfbench: memos are not empty at start", file=sys.stderr)
        return 3

    os.makedirs(WORK, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="rep-", dir=WORK)
    try:
        ctx = {
            "golden": workloads.load_golden(args.golden),
            "tmpdir": tmpdir,
            "store": args.store,
            "mu_c": moments.mu_critical(workloads.PREC),
        }
        rng = random.Random(f"{args.workload}:{args.seed}")
        jobs, verify = workloads.WORKLOADS[args.workload](rng, args.size,
                                                          ctx)
        if args.mode == "setup":
            print(json.dumps({"setup_s": time.monotonic() - args.t0}))
            return 0
        return run_rep(args, jobs, verify, ctx)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def run_rep(args, jobs, verify, ctx):
    import workloads
    from tightwp import intersection
    from tightwp.errors import CancellationWarning

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    stored_before = store_files(ctx["store"]) if ctx["store"] else 0
    outs, lat_ms, raised = [], [], set()
    clock = time.perf_counter
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", CancellationWarning)
        setup_s = time.monotonic() - args.t0
        for i, (kind, thunk) in enumerate(jobs):
            t = clock()
            try:
                if tracer:
                    with tracer.job(kind):
                        out = thunk()
                else:
                    out = thunk()
            except Exception as exc:  # an unexpected error fails the job
                out = exc
                raised.add(i)
            lat_ms.append((clock() - t) * 1e3)
            outs.append(out)
        wall_s = sum(lat_ms) / 1e3
    cancel_warnings = sum(1 for w in caught
                          if issubclass(w.category, CancellationWarning))
    if tracer:
        tracer.uninstall()
    memo_keys = intersection.cache_size()
    store_writes = (store_files(ctx["store"]) - stored_before
                    if ctx["store"] else 0)

    failed = set(raised)
    messages = [f"job {i} ({jobs[i][0]}) raised {outs[i]!r}"
                for i in sorted(raised)]
    exact = []
    try:
        problems, exact = verify(outs)
    except Exception as exc:  # outputs that cannot be checked count failed
        problems = [(i, f"check crashed: {exc!r}") for i in range(len(jobs))]
    for i, msg in problems:
        failed.add(i)
        messages.append(f"job {i} ({jobs[i][0]}): {msg}")

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "latencies_ms": lat_ms,
        "kinds": [kind for kind, _ in jobs],
        "attempted": len(jobs),
        "failed": len(failed),
        "problems": messages[:20],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "store_writes": store_writes,
    }
    if tracer:
        result["layers"] = tracer.layer_metrics({
            "cancel_warnings": cancel_warnings,
            "memo_keys": memo_keys,
            "max_bits": workloads.max_bits(exact),
        })
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
