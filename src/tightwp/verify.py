"""Acceptance criteria as runnable checks.

Each criterion function returns a CriterionResult with per-check
measurements and verdicts; the CLI ``verify`` subcommand and the
tests/test_acceptance.py module both drive this code.  Tolerances are
pinned here, not in the callers.

Two checks are expected to fail at desk scale and are implemented
faithfully anyway (see the package README): the factorial-moment ratio
pinned at g=6 within 10%, and the coefficient ratios pinned at g=8 with
mu_g = mu_c - g^-3 within 15%.  Both converge only in the genuine
large-genus limit; the measured finite-size values are reported.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from collections import defaultdict
from dataclasses import dataclass

import mpmath
from mpmath import mp

from tightwp import boltzmann, intersection, moments, spectrum, tightpoly
from tightwp.ring import MuSeries, PiPoly, Rational, TightPoly

PREC = 113


@dataclass
class Check:
    name: str
    passed: bool
    measured: str
    tolerance: str


@dataclass
class CriterionResult:
    name: str
    checks: list
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_obj(self):
        return {
            "criterion": self.name,
            "passed": self.passed,
            "seconds": round(self.seconds, 3),
            "checks": [vars(c) for c in self.checks],
        }


def _at_prec(criterion):
    """Run a criterion at PREC bits, so that its mu values, constants,
    ratios and measured strings do not depend on the caller's mp.prec."""
    @functools.wraps(criterion)
    def run(*args, **kwargs):
        with mp.workprec(PREC):
            return criterion(*args, **kwargs)
    return run


def _num(x, digits: int = 17) -> str:
    return mpmath.nstr(mpmath.mpf(x), digits)


@_at_prec
def criterion_constants(cache=None) -> CriterionResult:
    """mu_c leading digits, alpha_1, alpha_2 against the quoted values."""
    checks = []
    muc = moments.mu_critical(PREC)
    s = mpmath.nstr(muc, 10)
    checks.append(Check("mu_c leading digits", s.startswith("0.0316"),
                        s, "starts with 0.0316"))
    a1 = moments.alpha1(PREC)
    checks.append(Check("alpha1", abs(a1 - mpmath.mpf("2.41105")) < 1e-5,
                        _num(a1, 10), "2.41105 +- 1e-5"))
    a2 = moments.alpha2(PREC)
    checks.append(Check("alpha2", abs(a2 - mpmath.mpf("1.27848")) < 1e-5,
                        _num(a2, 10), "1.27848 +- 1e-5"))
    return CriterionResult("C01 constants", checks)


@_at_prec
def criterion_polynomials(cache=None) -> CriterionResult:
    """Base cases and hand-derived P_{0,4}, P_{1,2} as exact term maps.

    Keys list the ell exponents, then the m exponents."""
    r = Rational
    checks = []
    p03 = tightpoly.p_gn(0, 3, cache=cache).poly
    checks.append(Check("P_{0,3} = 1",
                        p03 == TightPoly(3, 0, {(0, 0, 0): 1}),
                        repr(p03.to_obj()), "exact"))
    p11 = tightpoly.p_gn(1, 1, cache=cache).poly
    expected11 = TightPoly(1, 1, {(0, 1): r(-1, 24), (1, 0): r(1, 48)})
    checks.append(Check("P_{1,1} = (1/24)(-m1 + ell1/2)",
                        p11 == expected11, repr(p11.to_obj()), "exact"))
    # -m1 + (ell1 + ell2 + ell3 + ell4)/2
    expected04 = TightPoly(4, 1, {(0, 0, 0, 0, 1): -1,
                                  (1, 0, 0, 0, 0): r(1, 2),
                                  (0, 1, 0, 0, 0): r(1, 2),
                                  (0, 0, 1, 0, 0): r(1, 2),
                                  (0, 0, 0, 1, 0): r(1, 2)})
    p04 = tightpoly.p_gn(0, 4, cache=cache).poly
    checks.append(Check("P_{0,4} hand form", p04 == expected04,
                        repr(p04.to_obj()), "exact"))
    # (1/24)(-m2 + 2 m1^2 - m1 (ell1 + ell2) + (ell1^2 + ell2^2)/8
    #        + ell1 ell2/4)
    expected12 = TightPoly(2, 2, {(0, 0, 0, 1): r(-1, 24),
                                  (0, 0, 2, 0): r(1, 12),
                                  (1, 0, 1, 0): r(-1, 24),
                                  (0, 1, 1, 0): r(-1, 24),
                                  (2, 0, 0, 0): r(1, 192),
                                  (0, 2, 0, 0): r(1, 192),
                                  (1, 1, 0, 0): r(1, 96)})
    p12 = tightpoly.p_gn(1, 2, cache=cache).poly
    checks.append(Check("P_{1,2} hand form", p12 == expected12,
                        repr(p12.to_obj()), "exact"))
    return CriterionResult("C02 exact polynomial identities", checks)


def _mu0_m_values(d: int) -> list:
    """m_k at mu = 0: M_k(0)/M_0(0) = (-2 pi^2)^k / k!, as order-0
    MuSeries."""
    return [MuSeries([Rational((-2) ** k, math.factorial(k))], shift=k)
            for k in range(1, d + 1)]


def _at_mu0(cell) -> dict:
    """{ell-key: PiPoly} of T_{g,n}(L, 0), the m_k put in at mu = 0."""
    got = cell.poly.subst_m(_mu0_m_values(cell.d),
                            [MuSeries([q]) for q in cell.poly.terms.values()])
    return {k: v.coeff(0) for k, v in got.items()}


@_at_prec
def criterion_classical_volumes(cache=None) -> CriterionResult:
    """T_{1,1}(L,0) and T_{1,2}(L,0) as exact q pi^(2j) identities."""
    checks = []
    got = _at_mu0(tightpoly.p_gn(1, 1, cache=cache))
    expect = {(1,): PiPoly(Rational(1, 48)),
              (0,): PiPoly(Rational(1, 12), 1)}
    checks.append(Check("T_{1,1}(L,0) = (L^2 + 4 pi^2)/48", got == expect,
                        repr({k: v.to_obj() for k, v in got.items()}),
                        "exact"))
    got12 = _at_mu0(tightpoly.p_gn(1, 2, cache=cache))
    q = Rational(1, 192)
    expect12 = {
        (2, 0): PiPoly(q),
        (0, 2): PiPoly(q),
        (1, 1): PiPoly(2 * q),
        (1, 0): PiPoly(16 * q, 1),
        (0, 1): PiPoly(16 * q, 1),
        (0, 0): PiPoly(48 * q, 2),
    }
    checks.append(Check(
        "T_{1,2}(L,0) = ((l1+l2)^2 + 16 pi^2 (l1+l2) + 48 pi^4)/192",
        got12 == expect12,
        repr({k: v.to_obj() for k, v in got12.items()}), "exact"))
    return CriterionResult("C03 classical volume oracle", checks)


@_at_prec
def criterion_series_extraction(cache=None) -> CriterionResult:
    """volume_extract at order 20: V_{0,3}, V_{0,4}(0), V_{1,1}(0)."""
    checks = []
    vols = moments.volume_extract(0, 3, 20, cache=cache)
    checks.append(Check("V_{0,3} = 1", vols[0] == PiPoly(1),
                        repr(vols[0].to_obj()), "exact"))
    checks.append(Check("V_{0,4}(0) = 2 pi^2",
                        vols[1] == PiPoly(2, 1),
                        repr(vols[1].to_obj()), "exact"))
    v11 = moments.volume_extract(1, 1, 0, cache=cache)[0]
    checks.append(Check("V_{1,1}(0) = pi^2/12",
                        v11 == PiPoly(Rational(1, 12), 1),
                        repr(v11.to_obj()), "exact"))
    return CriterionResult("C04 series extraction", checks)


def recursion_step(prev: tightpoly.PolyCell) -> TightPoly:
    """P_{g,n} from P_{g,n-1} by the tight-volume n-recursion, in one pass
    over the terms of P_{g,n-1}; an independent route to the closed form.

    Each term t = q ell^a m^e, its boundaries moved to positions 2..n,
    adds the volume term (2g-3+n)(-m_1 + ell_1/2) t, the derivative
    terms sum_p (m_{p+1} - ell_1^{p+1}/(2^{p+1}(p+1)!) - m_1 m_p
    + ell_1 m_p/2) dt/dm_p, and one boundary integral per position i >= 2:
    the old first boundary, exponent a_1, moves to position i with
    exponent a_1 + 1 and coefficient q/(2a_1 + 2), which is
    int_0^{L_i} x t(x^2) dx.  As sum_p m_p dt/dm_p = |e| t, the
    -m_1 m_p + ell_1 m_p/2 parts join the volume term, whose factor
    becomes 2g-3+n+|e|.
    """
    g, n, d = prev.genus, prev.boundaries + 1, prev.d + 1
    # the coefficient of ell_1^{p+1} in the factor of dt/dm_p
    ell_coef = [None] + [Rational(-1, 2 ** (p + 1) * math.factorial(p + 1))
                         for p in range(1, d)]
    out = defaultdict(int)
    for key, q in prev.poly.terms.items():
        a, e = key[:n - 1], key[n - 1:] + (0,)
        # volume term with the -m_1 m_p + ell_1 m_p/2 derivative parts
        vol = (2 * g - 3 + n + sum(e)) * q
        out[(0, *a, e[0] + 1, *e[1:])] -= vol
        out[(1, *a, *e)] += vol / 2
        # the m_{p+1} and ell_1^{p+1} derivative parts
        for p in range(1, d):
            if e[p - 1]:
                c = e[p - 1] * q
                low = (*e[:p - 1], e[p - 1] - 1)
                out[(0, *a, *low, e[p] + 1, *e[p + 1:])] += c
                out[(p + 1, *a, *low, *e[p:])] += c * ell_coef[p]
        # boundary integrals
        if a:
            c = q / (2 * a[0] + 2)
            for i in range(1, n):
                out[(0, *a[1:i], a[0] + 1, *a[i:], *e)] += c
    return TightPoly._raw(n, d, {k: c for k, c in out.items() if c})


def recursion_holds(cell: tightpoly.PolyCell, cache=None) -> bool:
    """True iff the n-recursion applied to P_{g,n-1} gives exactly cell."""
    prev = tightpoly.p_gn(cell.genus, cell.boundaries - 1, cache=cache)
    return recursion_step(prev) == cell.poly


def cusp_step(cell: tightpoly.PolyCell) -> TightPoly:
    """The ell = 0 slice of P_{g,n+1} from that of P_{g,n} = cell, in one
    pass over its terms; an independent route to the closed form.

    At L = 0 a cusp is a mu-derivative, d/dmu T_{g,n}(0, mu) =
    T_{g,n+1}(0, mu), with T_{g,n} = P_{g,n} M_0^-(2g-2+n), M_0' = m_1 and
    m_k' = (m_{k+1} - m_1 m_k)/M_0.  So

        P_{g,n+1}(0, m) = -(2g-2+n) m_1 P_{g,n}(0, m)
                          + sum_k (m_{k+1} - m_1 m_k) dP_{g,n}(0, m)/dm_k.

    Each term t = q m^e adds e_k q m^e m_{k+1}/m_k for every k with
    e_k > 0.  As sum_k m_k dt/dm_k = |e| t, the -m_1 m_k parts join the
    first term, whose factor becomes 2g-2+n+|e|.
    """
    g, n = cell.genus, cell.boundaries
    zero = (0,) * (n + 1)
    out = defaultdict(int)
    for key, q in cell.poly.terms.items():
        if any(key[:n]):
            continue
        e = key[n:] + (0,)
        out[(*zero, e[0] + 1, *e[1:])] -= (2 * g - 2 + n + sum(e)) * q
        for k in range(1, len(e)):
            if e[k - 1]:
                out[(*zero, *e[:k - 1], e[k - 1] - 1, e[k] + 1,
                     *e[k + 1:])] += e[k - 1] * q
    return TightPoly._raw(n + 1, cell.d + 1,
                          {k: c for k, c in out.items() if c})


def cusp_step_holds(cell: tightpoly.PolyCell, cache=None) -> bool:
    """True iff cusp_step of cell is exactly the ell = 0 slice of
    P_{g,n+1}."""
    nxt = tightpoly.p_gn(cell.genus, cell.boundaries + 1, cache=cache)
    return cusp_step(cell) == nxt.poly.ell_slice((0,) * nxt.boundaries)


def _tau_keys(max_dim: int):
    """Every stable (genus, indices) correlator key with n >= 1 whose
    indices sum to its dimension 3g - 3 + n <= max_dim; indices descend."""
    for g in range(0, max_dim // 3 + 2):
        for n in range(1, max_dim - 3 * g + 4):
            dim = 3 * g - 3 + n
            if 2 * g - 2 + n <= 0:
                continue
            for part in tightpoly.partitions(dim):
                if len(part) <= n:
                    yield g, part + (0,) * (n - len(part))


@_at_prec
def criterion_property_suites(cache=None) -> CriterionResult:
    """validate_cell sweep, the n-recursion and the cusp derivation
    against the closed form, string/dilaton/Virasoro consistency,
    comparison sweep."""
    checks = []
    bad = []
    for g in range(0, 6):
        for n in range(0, 6):
            if tightpoly.admissible(g, n):
                cell = tightpoly.p_gn(g, n, cache=cache)
                if not tightpoly.validate_cell(cell):
                    bad.append((g, n))
    checks.append(Check("validate_cell for admissible g<=5, n<=5",
                        not bad, f"failures: {bad}", "all valid"))

    pairs = [(g, n) for g in range(6) for n in range(5)
             if tightpoly.admissible(g, n)]
    bad = [(g, n) for g, n in pairs
           if not cusp_step_holds(tightpoly.p_gn(g, n, cache=cache), cache)]
    checks.append(Check("cusp derivation gives the ell = 0 slice of "
                        "P_{g,n+1}, g<=5 with n+1<=5", not bad,
                        f"{len(pairs)} pairs, failures: {bad}", "exact"))

    pairs = [(g, n) for g in range(6) for n in range(1, 5 if g <= 3 else 4)
             if tightpoly.admissible(g, n - 1)]
    bad = [(g, n) for g, n in pairs
           if not recursion_holds(tightpoly.p_gn(g, n, cache=cache), cache)]
    checks.append(Check("n-recursion gives P_{g,n}, g<=3 with n<=4 and "
                        "g<=5 with n<=3", not bad,
                        f"{len(pairs)} cells, failures: {bad}", "exact"))

    # string/dilaton: exact reduction identities on every correlator key
    # that carries a tau_0 (resp. tau_1), in the stated dimension range.
    # The recursion strips every tau_0 and tau_1 by these two equations,
    # so the Virasoro relation on a key with a tau_1 and an index >= 2
    # is the check that does not hold by construction.
    str_fail = dil_fail = vir_fail = 0
    str_n = dil_n = vir_n = 0
    for (g, idx) in _tau_keys(12):
        if 1 in idx and idx[0] >= 2:
            vir_n += 1
            if not intersection.virasoro_identity_holds(g, idx):
                vir_fail += 1
        if 0 in idx:
            rest = list(idx)
            rest.remove(0)
            if rest and 2 * g - 2 + len(rest) > 0:
                str_n += 1
                if not intersection.string_identity_holds(g, rest):
                    str_fail += 1
        if 1 in idx:
            rest = list(idx)
            rest.remove(1)
            if rest and 2 * g - 2 + len(rest) > 0:
                dil_n += 1
                if not intersection.dilaton_identity_holds(g, rest):
                    dil_fail += 1
    checks.append(Check("string equation on all keys (dim <= 12)",
                        str_fail == 0 and str_n > 0,
                        f"{str_n} keys, {str_fail} failures", "all exact"))
    checks.append(Check("dilaton equation on all keys (dim <= 12)",
                        dil_fail == 0 and dil_n > 0,
                        f"{dil_n} keys, {dil_fail} failures", "all exact"))
    checks.append(Check("Virasoro relation on keys with a tau_1 and an "
                        "index >= 2 (dim <= 12)",
                        vir_fail == 0 and vir_n > 0,
                        f"{vir_n} keys, {vir_fail} failures", "all exact"))

    # exhaustive comparison-bound sweep
    total = failures = 0
    for g in (2, 3, 4):
        dim = 3 * g - 3
        pool = []
        for k in range(0, dim + 1):
            for combo in itertools.combinations_with_replacement(
                    range(1, 5), k):
                if sum(combo) <= dim:
                    pool.append(combo)
        for pvec in pool:
            for qvec in pool:
                if not qvec:
                    continue
                if sum(pvec) + sum(qvec) > dim:
                    continue
                total += 1
                if not intersection.check_comparison_bound(g, pvec, qvec):
                    failures += 1
    checks.append(Check("comparison bound sweep g in {2,3,4}, entries <= 4",
                        failures == 0 and total > 0,
                        f"{total} instances, {failures} failures",
                        "all true"))
    return CriterionResult("C05 property suites", checks)


@_at_prec
def criterion_intersection_trend(cache=None) -> CriterionResult:
    """|mp_asymptotic_ratio(g,(2)) - 1| strictly decreasing on 6..12."""
    checks = []
    gaps = []
    for g in range(6, 13):
        r = intersection.mp_asymptotic_ratio(g, (2,), prec=PREC)
        gaps.append(abs(float(r - 1)))
    dec = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    checks.append(Check("|ratio - 1| strictly decreasing over g=6..12", dec,
                        str([f"{x:.3e}" for x in gaps]), "monotone"))
    checks.append(Check("|ratio - 1| at g=12 below 0.2", gaps[-1] < 0.2,
                        f"{gaps[-1]:.3e}", "< 0.2"))
    return CriterionResult("C06 intersection asymptotics trend", checks)


@_at_prec
def criterion_alpha_trends(cache=None) -> CriterionResult:
    """Concentration diagnostics: the mu-trend at g=4 and the pinned
    g=8 coefficient ratios (the latter is the documented red check)."""
    checks = []
    muc = moments.mu_critical(PREC)
    g = 4
    cell = tightpoly.p_gn(g, 0, cache=cache)
    gaps = []
    for j in range(2, 7):
        mu = muc * (1 - mpmath.mpf(10) ** -j)
        fr = moments.cached_frame(mu, cell.d, PREC)
        a = tightpoly.alpha_deriv(g, 0, (1,), fr, cache=cache)
        ph = tightpoly.phi(g, 0, (1,), fr)
        gaps.append(abs(float(a / ph - 1)))
    dec = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    checks.append(Check("|alpha_{g,(1)}/phi(g,(1)) - 1| decreasing, "
                        "mu = mu_c(1 - 10^-j), j=2..6, g=4", dec,
                        str([f"{x:.4f}" for x in gaps]), "monotone"))
    checks.append(Check("final gap at j=6 below 0.05", gaps[-1] < 0.05,
                        f"{gaps[-1]:.4f}", "< 0.05"))

    g = 8
    mu = muc - mpmath.mpf(g) ** -3
    cell = tightpoly.p_gn(g, 1, cache=cache)
    fr = moments.cached_frame(mu, cell.d, PREC)
    for (n, pvec, qvec) in [(1, (), (1,)), (1, (1,), (0,))]:
        ac = tightpoly.alpha_coeff(g, n, pvec, qvec, fr, cache=cache)
        target = tightpoly.phi(g, n, pvec, fr)
        for q in qvec:
            target /= math.factorial(2 * q + 1)
        ratio = float(ac / target)
        checks.append(Check(
            f"alpha/(phi prod 1/(2q+1)!) within 15% at g=8, "
            f"(n,p,q)=({n},{pvec},{qvec})",
            abs(ratio - 1) < 0.15, f"ratio = {ratio:.4f}", "|r - 1| < 0.15"))
    return CriterionResult("C07 concentration-diagnostic trends", checks)


@_at_prec
def criterion_cusp_statistics(cache=None) -> CriterionResult:
    """Factorial-moment ratios (documented red at g=6), concentration
    decrease, and exact pmf/moment cross identities."""
    checks = []
    muc = moments.mu_critical(PREC)
    mu = muc - mpmath.mpf("1e-5")
    for r in (0, 1):
        fm = boltzmann.factorial_moment(6, r, mu, prec=PREC, cache=cache)
        with mp.workprec(PREC):
            target = (5 * 6 * muc / (2 * (muc - mu))) ** (r + 1)
        ratio = float(fm / target)
        checks.append(Check(
            f"factorial moment ratio within 10% at g=6, r={r}",
            abs(ratio - 1) < 0.10, f"ratio = {ratio:.4f}", "|r - 1| < 0.10"))

    # mu_c - 3^-3 < 0, so the g=3 point of the stated range is outside
    # the model's domain [0, mu_c); the decreasing trend runs over 4..8.
    vals = []
    for g in range(4, 9):
        cr = boltzmann.concentration_ratio(
            g, muc - mpmath.mpf(g) ** -3, prec=PREC, cache=cache)
        vals.append(float(cr))
    dec = all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))
    checks.append(Check(
        "concentration ratio decreasing at mu_g = mu_c - g^-3 "
        "(g=4..8; g=3 has mu_g < 0, outside the domain)", dec,
        str([f"{v:.4f}" for v in vals]), "monotone"))

    for (g, mu) in [(2, muc / 2), (3, muc / 3), (3, muc / 2)]:
        pmf = boltzmann.cusp_pmf(g, mu, prec=PREC, cache=cache)
        ok = abs(pmf.raw_mass - 1) < 1e-12
        m1 = boltzmann.factorial_moment(g, 0, mu, PREC, cache)
        m2 = boltzmann.factorial_moment(g, 1, mu, PREC, cache)
        rel1 = abs(pmf.mean() / float(m1) - 1)
        rel2 = abs(pmf.factorial_moment(2) / float(m2) - 1)
        checks.append(Check(
            f"pmf/moment cross identities at (g,mu)=({g},{_num(mu, 6)})",
            ok and rel1 < 1e-8 and rel2 < 1e-8,
            f"raw mass {pmf.raw_mass:.15f}, rel errs {rel1:.2e}/{rel2:.2e}",
            "raw in [1-1e-12,1], rels < 1e-8"))
    return CriterionResult("C08 cusp statistics", checks)


@_at_prec
def criterion_expected_counts(cache=None) -> CriterionResult:
    """Non-separating expected counts vs lambda_{1,2} along g = 3..8."""
    checks = []
    muc = moments.mu_critical(PREC)
    windows = spectrum.IntervalSet.make([(1.0, 2.0)])
    lam = spectrum.intensity(1, 2, PREC)
    checks.append(Check("lambda_{1,2} oracle",
                        abs(lam - mpmath.mpf("0.92165280110676097")) < 1e-12,
                        _num(lam, 12), "0.92165280... +- 1e-12"))
    gaps = []
    for g in range(3, 9):
        mu_g = muc - mpmath.mpf(g) ** -4
        e = spectrum.expected_nonseparating_count(g, mu_g, windows, PREC,
                                                  cache)
        gaps.append(abs(float(e / lam - 1)))
    dec = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    checks.append(Check("|count/lambda - 1| decreasing over g=3..8", dec,
                        str([f"{x:.4f}" for x in gaps]), "monotone"))
    checks.append(Check("|count/lambda - 1| at g=8 below 0.15",
                        gaps[-1] < 0.15, f"{gaps[-1]:.4f}", "< 0.15"))
    return CriterionResult("C09 tight-geodesic count limit", checks)


@_at_prec
def criterion_separating_suppression(cache=None) -> CriterionResult:
    """separating_sum(g,1,2) * g stays in a factor-3 band over g=4..10."""
    muc = moments.mu_critical(PREC)
    vals = []
    for g in range(4, 11):
        s = boltzmann.separating_sum(g, 1, 2, muc - mpmath.mpf(g) ** -3,
                                     prec=PREC, cache=cache)
        vals.append(float(s * g))
    band = max(vals) / min(vals)
    check = Check("separating_sum(g,1,2) * g within a factor-3 band, "
                  "g=4..10", band < 3.0,
                  f"values {[f'{v:.4f}' for v in vals]}, band {band:.3f}",
                  "max/min < 3")
    return CriterionResult("C10 separating suppression", [check])


@_at_prec
def criterion_monte_carlo(cache=None, samples: int = 100_000,
                          seed: int = 0) -> CriterionResult:
    """Sampler statistics against exact targets, over the seeds
    seed, ..., seed + samples - 1.

    The Poisson checks and the cusp check read the same seeds, so their
    fluctuations move together: a seed's Poisson count and its cusp draw
    both invert the seed's first uniform, and a change to the seeded
    stream re-rolls all four checks at once."""
    checks = []
    t_max = 3.0
    windows = [(0.5, 1.0), (1.5, 2.5)]
    lam_tot = float(spectrum.intensity(0, t_max, 53))
    counts_tot = 0
    counts_w = [0, 0]
    seeds = range(seed, seed + samples)
    for s in seeds:
        sample = spectrum.sample_poisson_process(t_max, seed=s)
        counts_tot += len(sample)
        for i, (a, b) in enumerate(windows):
            counts_w[i] += sample.count_in(a, b)
    mean_tot = counts_tot / samples
    sigma_tot = math.sqrt(lam_tot / samples)
    checks.append(Check(
        f"Poisson process mean count over {samples} runs within 3 sigma",
        abs(mean_tot - lam_tot) < 3 * sigma_tot,
        f"{mean_tot:.5f} vs {lam_tot:.5f} (sigma {sigma_tot:.5f})",
        "|diff| < 3 sigma"))
    for i, (a, b) in enumerate(windows):
        lam_w = float(spectrum.intensity(a, b, 53))
        mean_w = counts_w[i] / samples
        sigma_w = math.sqrt(lam_w / samples)
        checks.append(Check(
            f"window [{a},{b}] count within 3 sigma",
            abs(mean_w - lam_w) < 3 * sigma_w,
            f"{mean_w:.5f} vs {lam_w:.5f}", "|diff| < 3 sigma"))
    muc = moments.mu_critical(PREC)
    mu = muc / 2
    exact = float(boltzmann.mean_cusps(3, mu, PREC, cache))
    total = 0
    for s in seeds:
        total += spectrum.sample_cusp_count(3, mu, seed=s, prec=PREC,
                                            cache=cache)
    emp = total / samples
    checks.append(Check(
        f"cusp-count empirical mean over {samples} draws within 1% "
        "at (g,mu)=(3, mu_c/2)",
        abs(emp / exact - 1) < 0.01,
        f"{emp:.4f} vs {exact:.4f}", "relative < 1e-2"))
    return CriterionResult("C11 Monte Carlo", checks)


CRITERIA = [
    ("C01", criterion_constants, True),
    ("C02", criterion_polynomials, True),
    ("C03", criterion_classical_volumes, True),
    ("C04", criterion_series_extraction, True),
    ("C05", criterion_property_suites, False),
    ("C06", criterion_intersection_trend, False),
    ("C07", criterion_alpha_trends, False),
    ("C08", criterion_cusp_statistics, False),
    ("C09", criterion_expected_counts, False),
    ("C10", criterion_separating_suppression, False),
    ("C11", criterion_monte_carlo, False),
]


def run_suite(suite: str = "fast", cache=None, mc_samples: int = 100_000,
              seed: int = 0):
    """Run the acceptance criteria; suite is 'fast' or 'full'.  C11 draws
    mc_samples samples from the seeds seed, seed + 1, ..."""
    if suite not in ("fast", "full"):
        raise ValueError(f"unknown suite {suite!r}")
    results = []
    for _cid, fn, fast in CRITERIA:
        if suite == "fast" and not fast:
            continue
        t0 = time.time()
        if fn is criterion_monte_carlo:
            res = fn(cache=cache, samples=mc_samples, seed=seed)
        else:
            res = fn(cache=cache)
        res.seconds = time.time() - t0
        results.append(res)
    return results
