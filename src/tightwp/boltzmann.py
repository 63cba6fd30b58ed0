"""Boltzmann cusp statistics over the tight volume generating functions.

Everything here is a ratio or sum of values T_{g,n}(L, mu) =
M_0^-(2g-2+n) P_{g,n}(L, M), read as plain mpf from ``t_value``.  They
blow up polynomially in 1/M_0 near the critical fugacity, which mpmath's
unbounded exponent holds.  ``t_volume`` returns the same value as a
LogValue, a sign and a natural-log magnitude, for the CLI's report.

Callers read one cell at one moment vector for many L, so the moment
values are put into P_{g,n} once per (g, n, mu, prec) and kept, grouped
by ell-key; each evaluation is then a short sum over those groups.
``cell_groups`` is the one reader of a cell's numeric groups: ``t_value``
and ``spectrum.expected_nonseparating_count`` both go through it, so a
count and a T-value at the same (cell, mu, prec) share one kernel pass.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import mpmath
from mpmath import mp

from tightwp.errors import (CancellationWarning, DomainError, TailMassError)
from tightwp.moments import (SERIES_WORK_MAX, _newton_root, cached_frame,
                             mu_critical, series_work, volume_extract)
from tightwp.ring import DEFAULT_PREC, eval_ell_groups, mpf_list
from tightwp.tightpoly import admissible, compositions, p_gn


@dataclass(frozen=True)
class LogValue:
    """Sign plus natural-log magnitude of a ``t_volume`` value; sign == 0
    iff the value is zero."""

    sign: int
    log_magnitude: object

    @classmethod
    def from_number(cls, x, prec: int = DEFAULT_PREC) -> "LogValue":
        with mp.workprec(prec):
            x = mpmath.mpf(x)
            if x == 0:
                return cls(0, mpmath.mpf("-inf"))
            return cls(1 if x > 0 else -1, mpmath.log(abs(x)))


def cell_groups(g: int, n: int, mu, prec: int = DEFAULT_PREC, cache=None):
    """(frame, groups): the moment frame at mu and the kernel groups
    {ell-key: (G, A)} of P_{g,n} at its m_k = M_k/M_0, as raw mpf tuples.

    Kept on the cell under (frame.mu, prec), where frame.mu is the exact
    mpf ``cached_frame`` keys on, with the coefficients lifted to mpf once
    per precision.  Refuses a precision below 53 bits.
    """
    if prec < 53:
        raise DomainError("precision must be at least 53 bits")
    cell = p_gn(g, n, cache=cache)
    frame = cached_frame(mu, cell.d, prec)
    key = (frame.mu, prec)
    groups = cell.groups.get(key)
    if groups is None:
        if prec not in cell.lifts:
            cell.lifts[prec] = mpf_list(cell.poly.terms.values(), prec)
        groups = cell.groups[key] = cell.poly.subst_m_mpf(
            frame.m_ratios()[:cell.d], cell.lifts[prec], prec)
    return frame, groups


def t_value(g: int, n: int, L: Sequence, mu,
            prec: int = DEFAULT_PREC, cache=None):
    """T_{g,n}(L, mu) = M_0^-(2g-2+n) P_{g,n}(L, M) as an mpf at prec.

    P_{g,n} is read from ``cell_groups``: the moments are put in once per
    (g, n, mu, prec), and each L costs one short sum over the cell's
    ell-keys.  Warns (CancellationWarning) when that sum is flagged as
    cancelled (see ``ring.CANCEL_THRESHOLD``).
    """
    if not admissible(g, n):
        raise DomainError(f"inadmissible (g,n) = ({g},{n})")
    if len(L) != n:
        raise DomainError(f"need {n} boundary lengths, got {len(L)}")
    with mp.workprec(prec):
        lengths = [mpmath.mpf(x) for x in L]
        if not all(mpmath.isfinite(x) and x >= 0 for x in lengths):
            raise DomainError("boundary lengths must be finite and >= 0")
        frame, groups = cell_groups(g, n, mu, prec, cache)
        value, abs_sum, cancelled = eval_ell_groups(
            groups, [x * x for x in lengths], prec)
        if cancelled:
            warnings.warn(
                f"T_({g},{n}) evaluation kept "
                f"{mpmath.nstr(abs(value) / abs_sum, 3)} of its term "
                "magnitude after cancellation", CancellationWarning,
                stacklevel=2)
        return value / frame.moments[0] ** (2 * g - 2 + n)


def t_volume(g: int, n: int, L: Sequence, mu,
             prec: int = DEFAULT_PREC, cache=None) -> LogValue:
    """``t_value`` as a LogValue."""
    return LogValue.from_number(t_value(g, n, L, mu, prec, cache), prec)


def factorial_moment(g: int, r: int, mu,
                     prec: int = DEFAULT_PREC, cache=None):
    """E[(N)_(r+1)] = mu^(r+1) T_{g,r+1}(mu) / T_g(mu), for g >= 2."""
    if g < 2:
        raise DomainError("cusp statistics need g >= 2 (T_{g,0} exists)")
    if r < 0:
        raise DomainError("factorial moment order must be >= 0")
    with mp.workprec(prec):
        mu = mpmath.mpf(mu)
        if mu == 0:
            return mpmath.mpf(0)
        num = t_value(g, r + 1, [0] * (r + 1), mu, prec, cache)
        return mu ** (r + 1) * num / t_value(g, 0, [], mu, prec, cache)


def mean_cusps(g: int, mu, prec: int = DEFAULT_PREC, cache=None):
    """E[N] as an mpf."""
    return factorial_moment(g, 0, mu, prec, cache)


@dataclass(frozen=True)
class CuspPmf:
    """Truncated cusp-count distribution.

    probs are renormalized over 0..pmax; raw_mass is the untruncated-model
    mass sum_p mu^p V_{g,p} / (p! T_g) actually captured (must sit within
    1e-12 of 1); tail_bound is the certified geometric bound on what the
    truncation dropped, relative to the captured mass.  cdf holds the
    running sums of probs, the same floats a left-to-right loop adds up.
    """

    probs: tuple
    raw_mass: float
    tail_bound: float
    cdf: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "cdf",
                           tuple(itertools.accumulate(self.probs)))

    def __len__(self):
        return len(self.probs)

    def mean(self) -> float:
        return sum(p * w for p, w in enumerate(self.probs))

    def factorial_moment(self, k: int) -> float:
        """sum_p p(p-1)...(p-k+1) pmf(p)."""
        total = 0.0
        for p, w in enumerate(self.probs):
            if p >= k:
                total += math.perm(p, k) * w
        return total


# The largest mass, relative to the captured mass, that cusp_pmf lets
# its truncation drop.
TAIL_TOL = 1e-12


def cusp_pmf(g: int, mu, pmax: int | None = None,
             prec: int = DEFAULT_PREC, cache=None) -> CuspPmf:
    """P(N = p) for p = 0..pmax under the mu-Boltzmann measure.

    Weights mu^p V_{g,p}(0)/p! come from the exact volume extraction.
    The dropped tail, at most w_pmax rho/(1 - rho) with rho the largest
    of the last three weight ratios, must stay below TAIL_TOL relative
    mass; with a given pmax, TailMassError asks for a larger one.
    Without, pmax starts at ceil(4 E[N]) + 40 and grows until the tail
    certifies, each time by the k with tail rho^k <= TAIL_TOL total (the
    ratios fall as p grows, so one step usually does).  Before an
    extraction, a pmax whose moments.series_work passes SERIES_WORK_MAX
    is refused (TailMassError), a given one as well as a grown one; pmax
    grows like 1/(mu_c - mu), so the pmfs past the bound sit near mu_c.
    """
    if g < 2:
        raise DomainError("cusp statistics need g >= 2")
    with mp.workprec(prec):
        mu = mpmath.mpf(mu)
        if not 0 < mu < mu_critical(prec):
            raise DomainError("cusp_pmf needs 0 < mu < mu_c")
        grow = pmax is None
        if grow:
            pmax = int(mpmath.ceil(4 * mean_cusps(g, mu, prec, cache))) + 40
        if pmax < 4:
            raise TailMassError("pmax must be at least 4 to certify "
                                "the dropped tail")
        while True:
            work = series_work(g, 0, pmax)
            if work > SERIES_WORK_MAX:
                raise TailMassError(
                    f"cusp_pmf({g}, {mpmath.nstr(mu, 8)}) at pmax {pmax} "
                    f"takes {work:.3g} units of work, over the bound "
                    f"{SERIES_WORK_MAX:.0e}; "
                    + ("take mu further from mu_c" if grow
                       else "use a smaller pmax"))
            weights = [v.eval(prec) * mu ** p / mpmath.factorial(p) for p, v
                       in enumerate(volume_extract(g, 0, pmax, cache=cache))]
            total = mpmath.fsum(weights)
            rho = max(weights[i + 1] / weights[i]
                      for i in range(pmax - 3, pmax))
            if rho >= 1:
                raise TailMassError(f"tail ratios not contracting at "
                                    f"pmax={pmax}; increase pmax")
            tail = weights[-1] * rho / (1 - rho)
            if tail <= TAIL_TOL * total:
                break
            if not grow:
                raise TailMassError(
                    f"certified tail mass {mpmath.nstr(tail / total, 5)} "
                    f"exceeds {TAIL_TOL}; increase pmax beyond {pmax}")
            pmax += int(mpmath.ceil(mpmath.log(TAIL_TOL * total / tail)
                                    / mpmath.log(rho)))
        raw_mass = float(total / t_value(g, 0, [], mu, prec, cache))
        probs = tuple(float(w / total) for w in weights)
        return CuspPmf(probs=probs, raw_mass=raw_mass,
                       tail_bound=float(tail / total))


@dataclass(frozen=True)
class MuSolveResult:
    mu: object
    seed: object  # the first-order seed mu_c (1 - 5g / (2 n_target))
    mean: object


def solve_mu_for_target(g: int, n_target, prec: int = DEFAULT_PREC,
                        cache=None, rel_tol: float = 1e-8) -> MuSolveResult:
    """The mu with E[N_{g,mu}] = n_target, by Newton's method on [0, mu_c).

    The slope is dE[N]/dmu = Var N / mu = (m2 + m1 - m1^2) / mu, from the
    first two factorial moments m1 = E[N] and m2 = E[N(N-1)].  Newton
    (moments._newton_root) starts at the first-order seed
    mu_c (1 - 5g/(2 n_target)), which the asymptotic mean formula
    suggests, when it lies inside the bracket, and at its midpoint
    otherwise.  The seed is reported as well.
    """
    if g < 2:
        raise DomainError("cusp statistics need g >= 2")
    if not n_target > 0:
        raise DomainError("target mean must be positive")
    with mp.workprec(prec):
        n_target = mpmath.mpf(n_target)
        muc = mu_critical(prec)
        seed = muc * (1 - mpmath.mpf(5 * g) / (2 * n_target))
        hi = muc * (1 - mpmath.mpf(2) ** (-min(prec - 10, 200)))
        if mean_cusps(g, hi, prec, cache) < n_target:
            raise DomainError(
                f"target {n_target} unreachable below mu_c at this precision")

        def fdf(mu):
            m1 = mean_cusps(g, mu, prec, cache)
            m2 = factorial_moment(g, 1, mu, prec, cache)
            return m1 - n_target, (m2 + m1 - m1 * m1) / mu

        x0 = seed if 0 < seed < hi else hi / 2
        mu = _newton_root(fdf, mpmath.mpf(0), hi, x0, rel_tol / 16)
        return MuSolveResult(mu=+mu, seed=+seed,
                             mean=mean_cusps(g, mu, prec, cache))


def concentration_ratio(g: int, mu, prec: int = DEFAULT_PREC, cache=None):
    """Var(N) / E[N]^2 from the first two factorial moments."""
    with mp.workprec(prec):
        m1 = factorial_moment(g, 0, mu, prec, cache)
        m2 = factorial_moment(g, 1, mu, prec, cache)
        if m1 == 0:
            raise DomainError("mean is zero at mu=0; ratio undefined")
        return +((m2 + m1 - m1 * m1) / (m1 * m1))


def boundary_ratio(g: int, n: int, L: Sequence, mu,
                   prec: int = DEFAULT_PREC, cache=None):
    """(T_{g,n}(sqrt(-M_1/(3 M_0)) L, mu) / T_{g,n}(0, mu),
        prod sinh(L_i)/L_i) for the boundary-profile comparison."""
    if not admissible(g, n):
        raise DomainError(f"inadmissible (g,n) = ({g},{n})")
    scale = cached_frame(mu, 1, prec).length_scale()
    with mp.workprec(prec):
        scaled = [mpmath.mpf(x) * scale for x in L]
        ratio = (t_value(g, n, scaled, mu, prec, cache)
                 / t_value(g, n, [0] * n, mu, prec, cache))
        target = mpmath.mpf(1)
        for x in L:
            x = mpmath.mpf(x)
            if x != 0:
                target *= mpmath.sinh(x) / x
        return +ratio, +target


def separating_decompositions(g: int, r: int, q: int):
    """Ordered sequences (g_1,n_1),..,(g_q,n_q) with n_i >= 1,
    2 g_i + n_i >= 3, sum n_i = 2r and sum g_i = g + q - r - 1.

    Every component of a cut surface borders at least one curve, hence
    n_i >= 1; the genus budget is the Euler-characteristic bookkeeping
    sum (2 g_i - 2 + n_i) = 2g - 2.
    """
    if r <= 0:
        raise DomainError("separating sums need r > 0")
    if not 1 < q <= r + 1:
        raise DomainError("separating sums need 1 < q <= r + 1")
    g_total = g + q - r - 1
    out = []
    for nvec in compositions(2 * r, (1,) * q):
        mins = [1 if n_i <= 2 else 0 for n_i in nvec]
        for gvec in compositions(g_total, mins):
            out.append(tuple(zip(gvec, nvec)))
    return out


def separating_sum(g: int, r: int, q: int, mu,
                   prec: int = DEFAULT_PREC, cache=None):
    """(M_0^r T_g(mu))^-1 sum over decompositions of prod T_{g_i,n_i}(mu).

    The diagnostic upper-bound sum for separating multicurves with r
    curves whose complement has q components.
    """
    decomps = separating_decompositions(g, r, q)
    if not decomps:
        return mpmath.mpf(0)
    frame = cached_frame(mu, 1, prec)
    with mp.workprec(prec):
        total = mpmath.fsum(
            mpmath.fprod(t_value(g_i, n_i, [0] * n_i, mu, prec, cache)
                         for g_i, n_i in seq) for seq in decomps)
        t_g = t_value(g, 0, [], mu, prec, cache)
        return total / (frame.moments[0] ** r * t_g)
