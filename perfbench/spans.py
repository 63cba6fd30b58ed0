"""Spans and counters around the library's public functions, for traced runs.

``install`` replaces every binding of each listed function -- the defining
module's attribute, every ``from x import f`` copy in other tightwp modules,
and every alias on a class such as ``__radd__ = __add__`` -- with a wrapper.
Cross-layer calls therefore go through the wrapper whichever module makes
them.  ``uninstall`` puts the originals back.

A span records its name, start, end and parent span; spans stay in memory
and are written out once the repetition ends.  A layer's self time is the
sum over its spans of the span's duration minus the durations of its child
spans.  Hot leaf functions (the Bessel series, the float intensity) only
get a call counter, so their time lands in the calling span's self time.

A function missing from the library (renamed or removed by a later change)
is skipped and its metrics read 0.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import os
import sys
import time

# (span name, module, attribute path); the name's prefix is the layer.
SPANS = [
    ("ring.tp.add", "tightwp.ring", "TightPoly.__add__"),
    ("ring.tp.mul", "tightwp.ring", "TightPoly.__mul__"),
    ("ring.tp.dm", "tightwp.ring", "TightPoly.dm"),
    ("ring.tp.integrate_ell", "tightwp.ring", "TightPoly.integrate_ell"),
    ("ring.tp.embed", "tightwp.ring", "TightPoly.embed"),
    ("ring.series.mul", "tightwp.ring", "MuSeries.__mul__"),
    ("ring.series.pow", "tightwp.ring", "MuSeries.__pow__"),
    ("ring.series.inverse", "tightwp.ring", "MuSeries.inverse"),
    ("ring.series.invert_z", "tightwp.ring", "series_invert_z"),
    ("ring.eval.eval_full", "tightwp.ring", "TightPoly.eval_full"),
    ("ring.eval.eval", "tightwp.ring", "TightPoly.eval"),
    ("intersection.number", "tightwp.intersection", "intersection_number"),
    ("tightpoly.build.p_gn", "tightwp.tightpoly", "p_gn"),
    ("tightpoly.build.p_g0", "tightwp.tightpoly", "p_g0"),
    ("tightpoly.validate", "tightwp.tightpoly", "validate_cell"),
    ("moments.frame.make_frame", "tightwp.moments", "make_frame"),
    ("moments.frame.cached_frame", "tightwp.moments", "cached_frame"),
    ("moments.frame.solve_r", "tightwp.moments", "solve_r"),
    ("moments.frame.moment", "tightwp.moments", "moment"),
    ("moments.frame.find_j0", "tightwp.moments", "find_j0"),
    ("moments.frame.mu_critical", "tightwp.moments", "mu_critical"),
    ("moments.frame.r_max", "tightwp.moments", "r_max"),
    ("moments.frame.alpha1", "tightwp.moments", "alpha1"),
    ("moments.frame.alpha2", "tightwp.moments", "alpha2"),
    ("moments.series.moment_series", "tightwp.moments", "moment_series"),
    ("moments.series.t_volume_series", "tightwp.moments", "t_volume_series"),
    ("moments.series.volume_extract", "tightwp.moments", "volume_extract"),
    ("moments.series.r_series", "tightwp.moments", "r_series"),
    ("boltzmann.t_volume", "tightwp.boltzmann", "t_volume"),
    ("boltzmann.mean_cusps", "tightwp.boltzmann", "mean_cusps"),
    ("boltzmann.cusp_pmf", "tightwp.boltzmann", "cusp_pmf"),
    ("boltzmann.solve_mu", "tightwp.boltzmann", "solve_mu_for_target"),
    ("spectrum.sample", "tightwp.spectrum", "sample_poisson_process"),
    ("spectrum.draw", "tightwp.spectrum", "sample_cusp_count"),
    ("spectrum.count", "tightwp.spectrum", "expected_nonseparating_count"),
    ("cache.write.write_twp", "tightwp.cache", "write_twp"),
    ("cache.write.store", "tightwp.tightpoly", "PolyCache.store"),
    ("cache.write.save_tau", "tightwp.tightpoly", "PolyCache.save_tau"),
    ("cache.read.read_twp", "tightwp.cache", "read_twp"),
    ("cache.read.load", "tightwp.tightpoly", "PolyCache.load"),
    ("cache.read.load_tau", "tightwp.tightpoly", "PolyCache.load_tau"),
]

# (counter name, module, attribute path): counted, not timed.
COUNTERS = [
    ("moments.z_value", "tightwp.moments", "z_value"),
    ("moments.bessel_j", "tightwp.moments", "bessel_j"),
    ("spectrum.intensity", "tightwp.spectrum", "intensity"),
    ("spectrum.intensity_f", "tightwp.spectrum", "_intensity_f"),
]


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """In-memory span recorder plus the counters observed at span exits."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.spans: list = []   # [name id, start, end, parent index, error]
        self._stack = [-1]
        self.counts = collections.Counter()
        self.cancel_max = 0.0
        self._cells_seen: set = set()
        self._loaded: set = set()
        self._patched: list = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _span_wrapper(self, name, fn, before=None, after=None):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before() if before else None
            rec = [nid, 0.0, 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = clock()
                rec[4] = type(exc).__name__
                raise
            finally:
                stack.pop()
            rec[2] = clock()
            if after:
                after(state, args, out)
            return out

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def job(self, label: str):
        """Root span for one benchmark job; the spans below it share it."""
        rec = [self._name_id("job." + label), 0.0, 0.0, -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        except BaseException as exc:
            rec[4] = type(exc).__name__
            raise
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    # -- observers ---------------------------------------------------------

    def _observers(self):
        from tightwp import intersection

        def after_tau(before, _args, _out):
            if intersection.cache_size() == before:
                self.counts["intersection.hits"] += 1

        def after_eval_full(_state, _args, out):
            value, abs_sum = out[0], out[1]
            if value:
                ratio = float(abs_sum / abs(value))
                if ratio > self.cancel_max:
                    self.cancel_max = ratio

        def after_p_gn(_state, _args, cell):
            key = (cell.genus, cell.boundaries)
            if key not in self._cells_seen:
                self._cells_seen.add(key)
                if key in self._loaded:
                    return
                self.counts["tightpoly.cells_built"] += 1
                self.counts["tightpoly.monomials"] += len(cell.poly)

        def after_load(_state, args, cell):
            if cell is not None:
                self._loaded.add((cell.genus, cell.boundaries))
                self.counts["tightpoly.cells_loaded"] += 1

        def after_sample(_state, _args, out):
            self.counts["spectrum.points"] += len(out)

        def after_write(_state, args, _out):
            self.counts["cache.write_bytes"] += _file_size(args[0])

        def after_read(_state, args, out):
            if out is not None:
                self.counts["cache.read_bytes"] += _file_size(args[0])

        return {
            "intersection.number": (intersection.cache_size, after_tau),
            "ring.eval.eval_full": (None, after_eval_full),
            "tightpoly.build.p_gn": (None, after_p_gn),
            "cache.read.load": (None, after_load),
            "spectrum.sample": (None, after_sample),
            "cache.write.write_twp": (None, after_write),
            "cache.read.read_twp": (None, after_read),
        }

    # -- patching ----------------------------------------------------------

    def install(self):
        observers = self._observers()
        for name, module, path in SPANS:
            before, after = observers.get(name, (None, None))
            self._patch(module, path,
                        lambda fn, n=name, b=before, a=after:
                        self._span_wrapper(n, fn, b, a))
        for name, module, path in COUNTERS:
            self._patch(module, path,
                        lambda fn, n=name: self._count_wrapper(n, fn))

    def _patch(self, module_name, path, make_wrapper):
        module = sys.modules.get(module_name)
        if module is None:
            return
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            if owner is None or attr not in vars(owner):
                return
            orig = vars(owner)[attr]
            wrapper = make_wrapper(orig)
            for key, value in list(vars(owner).items()):
                if value is orig:
                    setattr(owner, key, wrapper)
                    self._patched.append((owner, key, orig))
            return
        orig = getattr(module, attr, None)
        if orig is None:
            return
        wrapper = make_wrapper(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tightwp"
                                   or mod_name.startswith("tightwp.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._patched.append((mod, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    # -- aggregation -------------------------------------------------------

    def self_times(self):
        """(calls, self seconds) per span name."""
        child = [0.0] * len(self.spans)
        for _nid, start, end, parent, _err in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = collections.Counter()
        self_s = collections.Counter()
        for i, (nid, start, end, _parent, _err) in enumerate(self.spans):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        return calls, self_s

    def refuse_ms(self) -> float:
        """Inclusive time of the outermost p_gn calls that raised
        BudgetError, in milliseconds."""
        nid = self._ids.get("tightpoly.build.p_gn")
        total = 0.0
        for nid_i, start, end, parent, err in self.spans:
            if nid_i != nid or err != "BudgetError":
                continue
            if parent >= 0 and self.spans[parent][0] == nid:
                continue
            total += end - start
        return total * 1e3

    def count_under(self, name: str, ancestor: str) -> int:
        """Number of `name` spans that have an `ancestor` span above them."""
        nid, aid = self._ids.get(name), self._ids.get(ancestor)
        if nid is None or aid is None:
            return 0
        found = 0
        for rec in self.spans:
            if rec[0] != nid:
                continue
            parent = rec[3]
            while parent >= 0:
                if self.spans[parent][0] == aid:
                    found += 1
                    break
                parent = self.spans[parent][3]
        return found

    def layer_metrics(self, extra: dict) -> dict:
        """The per-layer metrics of BENCHMARK.json from the recorded spans.

        ``extra`` carries what the worker observed outside the wrappers:
        memo size, cancellation warnings, largest exact bit length.
        """
        calls, self_s = self.self_times()
        c = self.counts

        def n(prefix):
            return sum(v for k, v in calls.items() if k.startswith(prefix))

        def s(prefix):
            return sum(v for k, v in self_s.items() if k.startswith(prefix))

        tau_calls = calls["intersection.number"]
        return {
            "ring.tp_calls": n("ring.tp."),
            "ring.tp_s": s("ring.tp."),
            "ring.series_calls": n("ring.series."),
            "ring.series_s": s("ring.series."),
            "ring.eval_calls": n("ring.eval."),
            "ring.eval_s": s("ring.eval."),
            "ring.cancel_max": self.cancel_max,
            "ring.cancel_warnings": extra["cancel_warnings"],
            "ring.max_bits": extra["max_bits"],
            "intersection.calls": tau_calls,
            "intersection.s": s("intersection."),
            "intersection.memo_keys": extra["memo_keys"],
            "intersection.hit_ratio": (c["intersection.hits"] / tau_calls
                                       if tau_calls else 0.0),
            "tightpoly.cells_built": c["tightpoly.cells_built"],
            "tightpoly.cells_loaded": c["tightpoly.cells_loaded"],
            "tightpoly.monomials": c["tightpoly.monomials"],
            "tightpoly.build_s": s("tightpoly.build."),
            "tightpoly.validate_s": s("tightpoly.validate"),
            "tightpoly.refuse_ms": self.refuse_ms(),
            "moments.frames": calls["moments.frame.make_frame"],
            "moments.frame_s": s("moments.frame."),
            "moments.solve_r_calls": calls["moments.frame.solve_r"],
            "moments.z_evals": c["moments.z_value"],
            "moments.bessel_calls": c["moments.bessel_j"],
            "moments.series_s": s("moments.series."),
            "boltzmann.t_volume_calls": calls["boltzmann.t_volume"],
            "boltzmann.t_volume_s": s("boltzmann.t_volume"),
            "boltzmann.pmf_calls": calls["boltzmann.cusp_pmf"],
            "boltzmann.pmf_s": s("boltzmann.cusp_pmf"),
            "boltzmann.solve_mu_evals": self.count_under(
                "boltzmann.mean_cusps", "boltzmann.solve_mu"),
            "spectrum.samples": calls["spectrum.sample"],
            "spectrum.points": c["spectrum.points"],
            "spectrum.sample_s": s("spectrum.sample"),
            "spectrum.draws": calls["spectrum.draw"],
            "spectrum.draw_s": s("spectrum.draw"),
            "spectrum.count_s": s("spectrum.count"),
            "spectrum.intensity_calls": (c["spectrum.intensity"]
                                         + c["spectrum.intensity_f"]),
            "cache.writes": calls["cache.write.write_twp"],
            "cache.write_bytes": c["cache.write_bytes"],
            "cache.write_s": s("cache.write."),
            "cache.reads": calls["cache.read.read_twp"],
            "cache.read_bytes": c["cache.read_bytes"],
            "cache.read_s": s("cache.read."),
        }

    def dump(self, path: str):
        """Write the spans as JSON: a name table and one row per span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "start", "end", "parent",
                                   "error"],
                       "spans": self.spans}, fh, separators=(",", ":"))
