"""Each benchmark workload runs in-process at size tiny and passes its own
output checks, so a change that drops a name the benchmark calls, or moves
an exact output off its golden value, fails here and not only in a
benchmark run.  The test only reads ``perfbench/``."""

import importlib.util
import random
from pathlib import Path

import pytest

from tightwp import moments

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_passes_its_checks(name, tmp_path):
    store, work = tmp_path / "store", tmp_path / "work"
    work.mkdir()
    workloads.build_store(str(store), "tiny")
    ctx = {
        "golden": workloads.load_golden(),
        "tmpdir": str(work),
        "store": str(store),
        "mu_c": moments.mu_critical(workloads.PREC),
    }
    jobs, verify = workloads.WORKLOADS[name](random.Random(f"{name}:0"),
                                             "tiny", ctx)
    outs = [thunk() for _kind, thunk in jobs]
    problems, _exact = verify(outs)
    assert problems == []
