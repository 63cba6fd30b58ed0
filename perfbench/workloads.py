"""The benchmark's workloads: seeded inputs, a fixed job list, output checks.

A workload function takes a ``random.Random`` seeded from ``--seed``, a
size (``full`` for the measured runs, ``tiny`` for the self-test) and a
context dict, and returns ``(jobs, verify)``:

* ``jobs`` is a list of ``(kind, thunk)``; one job is one user-level
  request, or a fixed batch of sub-millisecond requests.  The worker times
  each thunk and keeps its output.
* ``verify(outs)`` runs after the timed phase and returns
  ``(problems, exact)``: ``problems`` is a list of ``(job index, message)``
  for every output that fails its check, and ``exact`` the exact
  rationals whose bit length feeds ``ring.max_bits``.

Only the library's public functions are called.  Exact outputs are compared
with ``golden.json``, recorded from the code before any optimisation;
numeric outputs are checked against identities, pinned tolerances and, at
one fixed reference point per workload, golden values.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import mpmath
from mpmath import mp

from tightwp import boltzmann, intersection, moments, spectrum, tightpoly
from tightwp.cache import read_twp
from tightwp.errors import BudgetError
from tightwp.ring import PiPoly, Rational, rat_from_str

PREC = 113

# the P_{g,n} cells of exact-build besides P_{g,0}, g = 2..8
CATALOGUE = [(2, n) for n in range(1, 7)] + [(3, n) for n in range(1, 5)] \
    + [(4, n) for n in range(1, 4)] + [(5, n) for n in range(1, 4)] \
    + [(6, 1), (6, 2)]

# the cells numeric-sweep reads from its store
STORE_CELLS = [(g, n) for g in range(2, 7) for n in range(3)]

SIZES = {
    "full": {
        "g0_max": 7, "catalogue": CATALOGUE,
        "volumes": [(2, 40), (3, 35), (4, 30)],
        "tau_pool": 4000, "tau_batch": 400,
        "refuse": (4, 4, 10_000),
        "sweep_genera": [4, 4], "sweep_l": 12, "sweep_t2": 4,
        "sweep_br": 6,
        "solve": (2, 53, 2e-2), "store": STORE_CELLS,
        "poisson_batches": 160, "poisson_batch": 25,
        "draw_batches": 120, "draw_batch": 50, "pmf_genera": [2, 2],
        "count_genera": [3, 4], "count_windows": 1,
    },
    "tiny": {
        "g0_max": 4, "catalogue": [(2, 1), (2, 2), (3, 1)],
        "volumes": [(2, 8), (3, 4)],
        "tau_pool": 10, "tau_batch": 4,
        "refuse": (3, 3, 300),
        "sweep_genera": [2], "sweep_l": 1, "sweep_t2": 1, "sweep_br": 1,
        "solve": (2, 53, 5e-2), "store": [(2, 0), (2, 1), (2, 2)],
        "poisson_batches": 4, "poisson_batch": 5,
        "draw_batches": 4, "draw_batch": 10, "pmf_genera": [2],
        "count_genera": [3], "count_windows": 1,
    },
}


def cell_digest(cell) -> str:
    """sha256 of the canonical serialization of a cell's term map."""
    blob = json.dumps(cell.poly.to_obj(), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _key(g, n) -> str:
    return f"{g},{n}"


def _rel_err(got, want) -> float:
    got, want = mpmath.mpf(got), mpmath.mpf(want)
    if want == 0:
        return float(abs(got))
    return float(abs(got / want - 1))


def _check_cell(problems, i, cell, golden):
    want = golden["cells"].get(_key(cell.genus, cell.boundaries))
    if want is None:
        problems.append((i, f"no golden digest for P_{cell.genus},"
                            f"{cell.boundaries}"))
    elif cell_digest(cell) != want:
        problems.append((i, f"P_{cell.genus},{cell.boundaries} differs "
                            "from its golden digest"))


def _composition(rng, total: int, parts: int) -> tuple:
    """Uniform random composition of `total` into `parts` parts >= 0."""
    cuts = sorted(rng.sample(range(total + parts - 1), parts - 1))
    out, prev = [], -1
    for c in cuts + [total + parts - 1]:
        out.append(c - prev - 1)
        prev = c
    return tuple(out)


def _tau_query(rng):
    """A stable, dimension-correct key (g, indices) with g <= 6, n <= 6."""
    g = rng.randint(1, 6)
    n = rng.randint(1, 6)
    return g, _composition(rng, 3 * g - 3 + n, n)


# -- exact-build --------------------------------------------------------------

def exact_build(rng, size, ctx):
    """P_{g,0}, the recursion catalogue, validation, volume extraction, seeded
    tau queries, one budget refusal, then every cell and the tau segment
    written to a fresh store."""
    sz = SIZES[size]
    golden = ctx["golden"]
    store = tightpoly.PolyCache(ctx["tmpdir"])
    # tau batches are drawn from a pool of distinct keys, so each costs about
    # the same; one follows each job after the P_{g,0} builds, so that they
    # run with the caches the rest of the workload leaves behind
    tau_pool = list(dict.fromkeys(_tau_query(rng)
                                  for _ in range(sz["tau_pool"])))
    g0_keys = [(g, 0) for g in range(2, sz["g0_max"] + 1)]
    cell_keys = g0_keys + list(sz["catalogue"])
    rg, rn, budget = sz["refuse"]

    def refuse():
        try:
            tightpoly.p_gn(rg, rn, budget=budget)
        except BudgetError as exc:
            return exc
        return None

    later = [("build", lambda g=g, n=n: tightpoly.p_gn(g, n))
             for g, n in sz["catalogue"]]
    later += [("validate", lambda g=g, n=n:
               tightpoly.validate_cell(tightpoly.p_gn(g, n)))
              for g, n in sz["catalogue"]]
    later += [("volumes", lambda g=g, p=order:
               moments.volume_extract(g, 0, p))
              for g, order in sz["volumes"]]
    later.append(("refuse", refuse))
    later += [("write", lambda g=g, n=n: store.store(tightpoly.p_gn(g, n)))
              for g, n in cell_keys]
    later.append(("write", store.save_tau))

    jobs = [("build", lambda g=g, n=n: tightpoly.p_gn(g, n))
            for g, n in g0_keys]
    tau_batches, tau_at = [], []
    for job in later:
        jobs.append(job)
        batch = rng.choices(tau_pool, k=sz["tau_batch"])
        tau_batches.append(batch)
        tau_at.append(len(jobs))
        jobs.append(("tau", lambda b=batch:
                     [intersection.intersection_number(g, idx)
                      for g, idx in b]))
    # index of each non-tau job, in the order of cell_keys, catalogue, ...
    main_at = [i for i, (kind, _) in enumerate(jobs) if kind != "tau"]
    n_cells, n_cat = len(cell_keys), len(sz["catalogue"])
    first_validate = n_cells
    first_volume = first_validate + n_cat
    refuse_at = main_at[first_volume + len(sz["volumes"])]
    first_write = first_volume + len(sz["volumes"]) + 1

    def verify(outs):
        problems, exact = [], []
        cells = {}
        for j, (g, n) in enumerate(cell_keys):
            i = main_at[j]
            cell = outs[i]
            cells[(g, n)] = cell
            _check_cell(problems, i, cell, golden)
            exact.extend(cell.poly.terms.values())
        for j in range(n_cat):
            i = main_at[first_validate + j]
            if outs[i] is not True:
                problems.append((i, "validate_cell failed"))
        for j, (g, order) in enumerate(sz["volumes"]):
            i = main_at[first_volume + j]
            vols = outs[i]
            want = golden["volumes"].get(str(g), [])
            if len(vols) != order + 1 or len(want) < len(vols):
                problems.append((i, f"volume list for g={g} has "
                                    f"{len(vols)} entries"))
                continue
            for p, v in enumerate(vols):
                exact.extend(q for _, q in v.items())
                if v.to_obj() != want[p]:
                    problems.append((i, f"V_{g},{p}(0) differs from golden"))
            # cross route: V_{g,p}(0) from the (g,0) series at order p
            # against the (g,p) series at order 0
            for p in range(1, order + 1):
                if (g, p) in cells and \
                        moments.volume_extract(g, p, 0)[0] != vols[p]:
                    problems.append((i, f"V_{g},{p}(0) cross-route mismatch"))
        if PiPoly.term(2, 1) != moments.volume_extract(0, 3, 1)[1]:
            problems.append((main_at[first_volume],
                             "oracle V_{0,4}(0) = 2 pi^2"))
        if PiPoly.term(Rational(1, 12), 1) != \
                moments.volume_extract(1, 1, 0)[0]:
            problems.append((main_at[first_volume],
                             "oracle V_{1,1}(0) = pi^2/12"))
        checked = {}
        for i, batch in zip(tau_at, tau_batches):
            for (g, idx), value in zip(batch, outs[i]):
                ok = checked.get((g, idx))
                if ok is None:
                    exact.append(value)
                    raised = (idx[0] + 1,) + idx[1:]
                    ok = checked[(g, idx)] = (
                        intersection.dilaton_identity_holds(g, idx)
                        and intersection.string_identity_holds(g, raised)
                        and intersection.intersection_number(g, idx)
                        == value)
                if not ok:
                    problems.append((i, f"string/dilaton fails at "
                                        f"g={g} {idx}"))
                    break
        err = outs[refuse_at]
        if not (isinstance(err, BudgetError) and err.budget == budget
                and err.count > budget):
            problems.append((refuse_at, f"expected a budget refusal for "
                                        f"P_{rg},{rn}, got {err!r}"))
        for j, (g, n) in enumerate(cell_keys):
            loaded = store.load(g, n)
            if loaded is None or loaded.poly != cells[(g, n)].poly:
                problems.append((main_at[first_write + j],
                                 f"stored P_{g},{n} does not read back"))
        seg_at = main_at[first_write + n_cells]
        got = read_twp(store.tau_path(), "tau")
        rows = got[1] if got else []
        if len(rows) != outs[seg_at] or any(
                intersection.intersection_number(g, idx) != rat_from_str(s)
                for g, idx, s in rows):
            problems.append((seg_at, "tau segment does not read back"))
        return problems, exact

    return jobs, verify


# -- numeric-sweep --------------------------------------------------------------

def numeric_sweep(rng, size, ctx):
    """Load the stored cells, compute the constants at two precisions, sweep
    seeded mu towards mu_c with one cold and several warm queries each, and
    run one small fugacity solve."""
    sz = SIZES[size]
    golden = ctx["golden"]
    muc = ctx["mu_c"]
    store = tightpoly.PolyCache(ctx["store"])
    with mp.workprec(PREC):
        mu_ref = muc / 2
        points = []
        # one gap per stratum of [1e-5, 0.5] (log scale), so that every seed
        # spreads its points over the whole range
        lo, hi = math.log(1e-5), math.log(0.5)
        width = (hi - lo) / len(sz["sweep_genera"])
        for k, g in enumerate(sz["sweep_genera"]):
            gap = mpmath.exp(lo + width * (k + rng.random()))
            lens1 = sorted(rng.uniform(0.1, 3.0) for _ in range(sz["sweep_l"]))
            lens2 = [(rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0))
                     for _ in range(sz["sweep_l"])]
            br = [(rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0))
                  for _ in range(sz["sweep_br"])]
            lens2 = lens2[:sz["sweep_t2"]]
            points.append((g, +(muc * (1 - gap)), lens1, lens2, br))
    solve_g, solve_prec, rel_tol = sz["solve"]
    target = rng.uniform(28.0, 32.0)

    jobs = []
    for g, n in sz["store"]:
        jobs.append(("load", lambda g=g, n=n:
                     tightpoly.p_gn(g, n, cache=store)))
    first_const = len(jobs)
    for prec in (80, 160):
        jobs.append(("const", lambda p=prec: moments.mu_critical(p)))
        jobs.append(("const", lambda p=prec: moments.alpha1(p)))
        jobs.append(("const", lambda p=prec: moments.alpha2(p)))
    first_ref = len(jobs)
    jobs += [
        ("cold", lambda: boltzmann.concentration_ratio(2, mu_ref, PREC,
                                                       store)),
        ("warm", lambda: boltzmann.mean_cusps(2, mu_ref, PREC, store)),
        ("warm", lambda: boltzmann.t_volume(2, 2, [1.0, 0.5], mu_ref, PREC,
                                            store)),
        ("warm", lambda: boltzmann.boundary_ratio(2, 2, [1.2, 0.4], mu_ref,
                                                  PREC, store)),
    ]
    sweep = []   # (job index, what, g, mu, args)
    for g, mu, lens1, lens2, br in points:
        def add(kind, what, thunk, args=()):
            sweep.append((len(jobs), what, g, mu, args))
            jobs.append((kind, thunk))

        add("cold", "conc", lambda g=g, mu=mu:
            boltzmann.concentration_ratio(g, mu, PREC, store))
        add("warm", "mean", lambda g=g, mu=mu:
            boltzmann.mean_cusps(g, mu, PREC, store))
        add("warm", "t0", lambda g=g, mu=mu:
            boltzmann.t_volume(g, 0, [], mu, PREC, store))
        for x in lens1:
            add("warm", "t1", lambda g=g, mu=mu, x=x:
                boltzmann.t_volume(g, 1, [x], mu, PREC, store), (x,))
        for xy in lens2:
            add("warm", "t2", lambda g=g, mu=mu, xy=xy:
                boltzmann.t_volume(g, 2, list(xy), mu, PREC, store), xy)
        for xy in br:
            add("warm", "br", lambda g=g, mu=mu, xy=xy:
                boltzmann.boundary_ratio(g, 2, list(xy), mu, PREC, store),
                xy)
    solve_at = len(jobs)
    jobs.append(("solve", lambda: boltzmann.solve_mu_for_target(
        solve_g, target, solve_prec, store, rel_tol)))

    def verify(outs):
        problems, exact = [], []
        for i, _ in enumerate(sz["store"]):
            _check_cell(problems, i, outs[i], golden)
            exact.extend(outs[i].poly.terms.values())
        for j in range(2):
            muc_p, a1, a2 = outs[first_const + 3 * j:first_const + 3 * j + 3]
            if not (mpmath.nstr(muc_p, 10).startswith("0.0316")
                    and abs(a1 - mpmath.mpf("2.41105")) < 1e-5
                    and abs(a2 - mpmath.mpf("1.27848")) < 1e-5):
                problems.append((first_const + 3 * j,
                                 "C01 constants out of tolerance"))
        ref = golden["numeric_ref"]
        cr, mean, tv, (ratio, target_br) = outs[first_ref:first_ref + 4]
        refs = [(cr, ref["conc_2"]), (mean, ref["mean_2"]),
                (tv.log_magnitude, ref["log_t_2_2"]),
                (ratio, ref["br_2_2"])]
        for j, (got, want) in enumerate(refs):
            if _rel_err(got, want) > 1e-25:
                problems.append((first_ref + j,
                                 "reference value differs from golden"))
        t1_logs = {}
        for i, what, g, mu, args in sweep:
            out = outs[i]
            if what in ("conc", "mean"):
                if not (mpmath.isfinite(out) and out > 0):
                    problems.append((i, f"{what} not positive: {out}"))
            elif what in ("t0", "t1", "t2"):
                if out.sign != 1:
                    problems.append((i, f"T_{g} not positive"))
                if what == "t1":
                    t1_logs.setdefault((g, mu), []).append(out.log_magnitude)
                if what == "t2":
                    swapped = boltzmann.t_volume(g, 2, [args[1], args[0]],
                                                 mu, PREC, store)
                    if swapped.sign != out.sign or abs(
                            swapped.log_magnitude - out.log_magnitude) \
                            > mpmath.mpf(2) ** -90:
                        problems.append((i, "T_{g,2} not symmetric"))
            elif what == "br":
                ratio, target_br = out
                want = math.prod(math.sinh(x) / x for x in args)
                if not (ratio > 0 and abs(float(target_br) / want - 1)
                        < 1e-12):
                    problems.append((i, "boundary_ratio out of range"))
        for logs in t1_logs.values():
            if any(b <= a for a, b in zip(logs, logs[1:])):
                problems.append((sweep[0][0], "T_{g,1}(L) not increasing "
                                              "in L"))
        res = outs[solve_at]
        if abs(res.mean / target - 1) > rel_tol:
            problems.append((solve_at, f"solve_mu mean {res.mean} misses "
                                       f"{target} by more than {rel_tol}"))
        return problems, exact

    return jobs, verify


def build_store(root, size):
    """Write the cells numeric-sweep reads into a PolyCache at root."""
    store = tightpoly.PolyCache(root)
    for g, n in SIZES[size]["store"]:
        tightpoly.p_gn(g, n, cache=store)


# -- spectrum-mc --------------------------------------------------------------

def spectrum_mc(rng, size, ctx):
    """Seeded Poisson-process samples, cusp-count draws from a few pmfs, one
    exact pmf and a few expected-count windows."""
    sz = SIZES[size]
    golden = ctx["golden"]
    muc = ctx["mu_c"]
    base = rng.randrange(10 ** 9) * 10 ** 5
    with mp.workprec(PREC):
        mu_half = muc / 2
        # a narrow mu band keeps the pmf truncation (and so its build cost)
        # the same for every seed
        pmfs = [(g, +(muc * mpmath.mpf(rng.uniform(0.40, 0.41))))
                for g in sz["pmf_genera"]]
        counts = []
        for g in sz["count_genera"]:
            mu = +(muc * (1 - mpmath.mpf(rng.uniform(1e-3, 1e-1))))
            for _ in range(sz["count_windows"]):
                a = rng.uniform(0.2, 1.5)
                counts.append((g, mu, (a, a + rng.uniform(0.3, 1.5))))
        mu_ref_count = +(muc - mpmath.mpf(4) ** -4)
    # t_max on a 0.01 grid, so the check needs few distinct intensities
    poisson = [[(rng.randrange(100, 401) / 100,
                 base + b * sz["poisson_batch"] + k)
                for k in range(sz["poisson_batch"])]
               for b in range(sz["poisson_batches"])]
    draw_base = base + sz["poisson_batches"] * sz["poisson_batch"]
    draws = [(pmfs[b % len(pmfs)],
              [draw_base + b * sz["draw_batch"] + k
               for k in range(sz["draw_batch"])])
             for b in range(sz["draw_batches"])]

    jobs = []
    for batch in poisson:
        jobs.append(("poisson", lambda b=batch:
                     [spectrum.sample_poisson_process(t, s) for t, s in b]))
    first_draw = len(jobs)
    for (g, mu), seeds in draws:
        jobs.append(("draw", lambda g=g, mu=mu, ss=seeds:
                     [spectrum.sample_cusp_count(g, mu, s, PREC)
                      for s in ss]))
    pmf_at = len(jobs)
    jobs.append(("pmf", lambda: boltzmann.cusp_pmf(2, mu_half, prec=PREC)))
    first_count = len(jobs)
    for g, mu, win in counts:
        jobs.append(("count", lambda g=g, mu=mu, w=win:
                     spectrum.expected_nonseparating_count(
                         g, mu, spectrum.IntervalSet.make([w]), PREC)))
    ref_count_at = len(jobs)
    jobs.append(("count", lambda: spectrum.expected_nonseparating_count(
        4, mu_ref_count, spectrum.IntervalSet.make([(1.0, 2.0)]), PREC)))

    def verify(outs):
        problems, exact = [], []
        ref = golden["numeric_ref"]
        # Poisson process: every point inside [0, t_max], sorted; total and
        # windowed counts within 4 sigma of the exact intensities
        total = expect = 0.0
        win_total = win_expect = 0.0
        wa, wb = 0.5, 1.0
        lam = {}
        for j, batch in enumerate(poisson):
            for (t_max, _seed), sample in zip(batch, outs[j]):
                pts = sample.points
                if list(pts) != sorted(pts) or any(
                        not 0 <= x <= t_max for x in pts):
                    problems.append((j, "Poisson points out of range"))
                if t_max not in lam:
                    lam[t_max] = (
                        float(spectrum.intensity(0, t_max, 53)),
                        float(spectrum.intensity(wa, min(wb, t_max), 53)))
                total += len(pts)
                expect += lam[t_max][0]
                win_total += sample.count_in(wa, wb)
                win_expect += lam[t_max][1]
        last = len(poisson) - 1
        if abs(total - expect) > 4 * math.sqrt(expect):
            problems.append((last, f"Poisson count {total} vs {expect}"))
        if abs(win_total - win_expect) > 4 * math.sqrt(win_expect):
            problems.append((last, f"window count {win_total} vs "
                                   f"{win_expect}"))
        # cusp counts: draws inside the support, empirical mean within
        # 4 standard errors of the exact mean
        by_pmf = {}
        for j, ((g, mu), _seeds) in enumerate(draws):
            by_pmf.setdefault((g, mu), []).extend(outs[first_draw + j])
        for (g, mu), values in by_pmf.items():
            n = len(values)
            exact_mean = float(boltzmann.mean_cusps(g, mu, PREC))
            emp = sum(values) / n
            var = sum((v - emp) ** 2 for v in values) / max(n - 1, 1)
            if min(values) < 0 or abs(emp - exact_mean) > \
                    4 * math.sqrt(var / n) + 1e-12:
                problems.append((first_draw, f"cusp draws at g={g}: mean "
                                             f"{emp} vs {exact_mean}"))
        pmf = outs[pmf_at]
        want = ref["pmf_2_half"]
        m1 = float(boltzmann.mean_cusps(2, mu_half, PREC))
        if not (abs(pmf.raw_mass - 1) < 1e-12 and pmf.tail_bound < 1e-12
                and abs(pmf.mean() / m1 - 1) < 1e-8
                and len(pmf.probs) == len(want)
                and all(abs(p - w) <= 1e-13 * max(w, 1e-300)
                        for p, w in zip(pmf.probs, want))):
            problems.append((pmf_at, "reference pmf out of tolerance"))
        for j, _ in enumerate(counts):
            out = outs[first_count + j]
            if not (mpmath.isfinite(out) and out > 0):
                problems.append((first_count + j, f"expected count {out}"))
        if _rel_err(outs[ref_count_at], ref["count_4"]) > 1e-20:
            problems.append((ref_count_at, "reference expected count "
                                           "differs from golden"))
        for g, _mu, _win in counts:
            exact.extend(tightpoly.p_gn(g - 1, 2).poly.terms.values())
            exact.extend(tightpoly.p_gn(g, 0).poly.terms.values())
        return problems, exact

    return jobs, verify


WORKLOADS = {
    "exact-build": exact_build,
    "numeric-sweep": numeric_sweep,
    "spectrum-mc": spectrum_mc,
}


def max_bits(values) -> int:
    """Largest numerator or denominator bit length among exact rationals."""
    best = 0
    for q in values:
        best = max(best, int(q.numerator).bit_length(),
                   int(q.denominator).bit_length())
    return best


def golden_record(size="full"):
    """The golden values, computed by the code under test (see
    make_golden.py)."""
    sz = SIZES[size]
    out = {"cells": {}, "volumes": {}, "numeric_ref": {}}
    for g in range(2, sz["g0_max"] + 1):
        out["cells"][_key(g, 0)] = cell_digest(tightpoly.p_gn(g, 0))
    for g, n in sz["catalogue"]:
        out["cells"][_key(g, n)] = cell_digest(tightpoly.p_gn(g, n))
    for g, order in sz["volumes"]:
        out["volumes"][str(g)] = [v.to_obj() for v in
                                  moments.volume_extract(g, 0, order)]
    muc = moments.mu_critical(PREC)
    with mp.workprec(PREC):
        half = muc / 2
        ref = out["numeric_ref"]
        ref["conc_2"] = mpmath.nstr(
            boltzmann.concentration_ratio(2, half, PREC), 40)
        ref["mean_2"] = mpmath.nstr(boltzmann.mean_cusps(2, half, PREC), 40)
        ref["log_t_2_2"] = mpmath.nstr(
            boltzmann.t_volume(2, 2, [1.0, 0.5], half, PREC).log_magnitude,
            40)
        ref["br_2_2"] = mpmath.nstr(
            boltzmann.boundary_ratio(2, 2, [1.2, 0.4], half, PREC)[0], 40)
        ref["pmf_2_half"] = list(boltzmann.cusp_pmf(2, half,
                                                    prec=PREC).probs)
        ref["count_4"] = mpmath.nstr(spectrum.expected_nonseparating_count(
            4, muc - mpmath.mpf(4) ** -4,
            spectrum.IntervalSet.make([(1.0, 2.0)]), PREC), 40)
    return out


def load_golden(path=None):
    path = path or os.path.join(os.path.dirname(__file__), "golden.json")
    with open(path) as fh:
        return json.load(fh)

