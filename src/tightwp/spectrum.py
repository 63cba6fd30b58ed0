"""Tight length-spectrum limit layer.

The limiting Poisson intensity lambda_{a,b} = int_a^b (cosh t - 1)/t dt,
the systole tail law, the length normalization map, exact finite-(g, mu)
expected counts of non-separating tight multicurves via the tight
integration formula (the integrand is polynomial, so every window
integral is an exact antiderivative evaluation), a convergence-table
driver for the headline limit, and seeded Monte Carlo samplers for
comparison runs.  A count reads its cut cell through
``boltzmann.cell_groups``, the memo ``t_value`` reads too.  Every
seeded sample reads its uniforms from the SHAKE-128 stream of its
integer seed (``_rng``), which costs one hash call to set up, so a
seed per sample is cheap.
"""

from __future__ import annotations

import hashlib
import math
import operator
import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

import mpmath
from mpmath import mp

from tightwp.boltzmann import cell_groups, cusp_pmf, t_value
from tightwp.errors import DomainError
from tightwp.moments import (_newton_root, alpha1, cached_frame,
                             mu_critical)
from tightwp.ring import DEFAULT_PREC
from tightwp.tightpoly import admissible


class _Stream:
    """The uniforms of one seed's stream, read in order.

    The stream of seed s is the SHAKE-128 output of the ASCII decimal
    digits of s (b"%d" % s), read as consecutive little-endian 64-bit
    words; uniform k is (word_k >> 11) 2^-53, a float in [0, 1).  A
    longer SHAKE output extends a shorter one, so the stream does not
    depend on how it is read: the first 8 words come with the object,
    and a read past the held words asks for at least twice as many.
    """

    __slots__ = ("_key", "_u", "_k")

    def __init__(self, key: bytes):
        self._key = key
        self._u = _uniforms(key, 0, 8)
        self._k = 0

    def random(self) -> float:
        """The next uniform."""
        k = self._k
        if k == len(self._u):
            self._extend(k + 1)
        self._k = k + 1
        return self._u[k]

    def randoms(self, n: int) -> list:
        """The next n uniforms, as n calls of ``random`` would give them."""
        k = self._k
        if k + n > len(self._u):
            self._extend(k + n)
        self._k = k + n
        return self._u[k:k + n]

    def _extend(self, need: int):
        have = len(self._u)
        self._u += _uniforms(self._key, have, max(need, 2 * have))


def _uniforms(key: bytes, start: int, stop: int) -> list:
    """Uniforms start..stop-1 of the stream keyed by ``key``."""
    data = hashlib.shake_128(key).digest(8 * stop)
    return [(w >> 11) * 2.0 ** -53 for w in
            struct.unpack_from(f"<{stop - start}Q", data, 8 * start)]


def _rng(seed) -> _Stream:
    """The uniform stream of an integer seed (see ``_Stream``).

    The stream is a hash of the seed because one-draw-per-seed Monte
    Carlo reads the first uniforms of consecutive seeds, and those must
    not be correlated: a generator seeded with the raw integers can
    correlate them (a Mersenne Twister seeded so drifted by several
    sigma over batches of ~10^4 consecutive seeds).  One seed always
    yields one fixed sample.  A seed that is not an integer (a float, a
    string) is refused, never rounded or parsed.
    """
    try:
        seed = operator.index(seed)
    except TypeError:
        raise DomainError(f"a seed must be an integer, got {seed!r}") \
            from None
    return _Stream(b"%d" % seed)


# The largest window end ``intensity`` sums to.  The sum takes about
# e b / 2 terms, so its time grows linearly in b: about 0.015 s at b = 1e3
# and 0.12 s at b = 1e4 (113 bits, mpmath's pure-Python backend, one core
# of a 2-vCPU host).
# lambda_{0,b} is about e^b / b, which leaves the float range near
# b = 710, so the float samplers cannot read a larger window and a count
# of curves that long means nothing; 1e3 is the round bound past that.
INTENSITY_B_MAX = 1000


def intensity(a, b, prec: int = DEFAULT_PREC):
    """lambda_{a,b} = sum_{k>=1} (b^2k - a^2k) / (2k (2k)!).

    Term-wise integration of (cosh t - 1)/t; summed until the terms fall
    below the working precision.  Refuses b above INTENSITY_B_MAX.
    """
    with mp.workprec(prec + 16):
        a = mpmath.mpf(a)
        b = mpmath.mpf(b)
        if not 0 <= a <= b:
            raise DomainError(f"need 0 <= a <= b, got ({a}, {b})")
        if b > INTENSITY_B_MAX:
            raise DomainError(f"window end {b} exceeds {INTENSITY_B_MAX}")
        if a == b:
            return mpmath.mpf(0)
        total = mpmath.mpf(0)
        pa, pb = mpmath.mpf(1), mpmath.mpf(1)
        fact = mpmath.mpf(1)
        cutoff = mpmath.mpf(2) ** (-(prec + 8))
        k = 0
        while True:
            k += 1
            pa *= a * a
            pb *= b * b
            fact *= (2 * k - 1) * (2 * k)
            term = (pb - pa) / (2 * k * fact)
            total += term
            if term <= cutoff * (total + cutoff):
                break
        return +total


def _intensity_divisors() -> tuple:
    """2k (2k)! for k = 1, 2, ... while the float (2k)! is finite."""
    out, fact, k = [], 1.0, 1
    while not math.isinf(fact := fact * ((2 * k - 1) * (2 * k))):
        out.append(2 * k * fact)
        k += 1
    return tuple(out)


_INTENSITY_DIV = _intensity_divisors()


def _intensity_f(t: float) -> float:
    """Fast float-only lambda_{0,t} for the sampler inner loops; the sum
    stops at a negligible term or, where later terms are 0, the table's
    end.  An overflowing t^2k leaves it inf or nan."""
    total = 0.0
    p = 1.0
    t2 = t * t
    for div in _INTENSITY_DIV:
        p *= t2
        term = p / div
        total += term
        if term < 1e-18 * total + 5e-324:
            break
    return total


def systole_tail(t, prec: int = DEFAULT_PREC):
    """P(X >= t) = exp(-lambda_{0,t}) for the limiting systole law."""
    with mp.workprec(prec):
        t = mpmath.mpf(t)
        if not t >= 0:
            raise DomainError("systole tail needs t >= 0")
        return +mpmath.exp(-intensity(0, t, prec))


def normalization(mu, prec: int = DEFAULT_PREC):
    """(c(mu), alpha_1^-1 (mu_c - mu)^(-1/4)) with c = sqrt(-M_1/(12 M_0)),
    half of ``MomentFrame.length_scale``.

    Both normalize tight lengths; their ratio tends to 1 at criticality.
    """
    with mp.workprec(prec):
        c = cached_frame(mu, 1, prec).length_scale() / 2
        gap = mu_critical(prec) - mpmath.mpf(mu)
        alt = gap ** mpmath.mpf("-0.25") / alpha1(prec)
        return +c, +alt


@dataclass(frozen=True)
class IntervalSet:
    """Disjoint ordered length windows [a_i, b_i] with multiplicities."""

    intervals: tuple
    multiplicities: tuple

    @classmethod
    def make(cls, intervals, multiplicities=None) -> "IntervalSet":
        ivs = tuple((float(a), float(b)) for a, b in intervals)
        if multiplicities is None:
            multiplicities = (1,) * len(ivs)
        mults = tuple(int(r) for r in multiplicities)
        if len(mults) != len(ivs):
            raise DomainError("one multiplicity per interval required")
        if not ivs:
            raise DomainError("need at least one interval")
        if any(r < 1 for r in mults):
            raise DomainError("multiplicities must be >= 1")
        prev_b = None
        for a, b in ivs:
            # degenerate a == b is tolerated (zero-width windows count 0)
            if not 0 <= a <= b < math.inf:
                raise DomainError(f"bad interval ({a}, {b})")
            if prev_b is not None and not prev_b < a:
                raise DomainError("intervals must be disjoint and ordered")
            prev_b = b
        return cls(intervals=ivs, multiplicities=mults)

    @classmethod
    def parse(cls, text: str) -> "IntervalSet":
        """Parse 'a1:b1:r1,a2:b2:r2,...' (r defaults to 1)."""
        ivs, mults = [], []
        for chunk in text.split(","):
            parts = chunk.split(":")
            if len(parts) == 2:
                a, b = parts
                r = 1
            elif len(parts) == 3:
                a, b, r = parts
            else:
                raise DomainError(f"cannot parse window {chunk!r}")
            ivs.append((float(a), float(b)))
            mults.append(int(r))
        return cls.make(ivs, mults)

    @property
    def total_order(self) -> int:
        return sum(self.multiplicities)

    def expanded(self):
        """One (a, b) per integration variable, repeated by multiplicity."""
        out = []
        for (a, b), r in zip(self.intervals, self.multiplicities):
            out += [(a, b)] * r
        return out

    def lambda_targets(self, prec: int = DEFAULT_PREC):
        """lambda_{a_i,b_i} per window."""
        return tuple(intensity(a, b, prec) for a, b in self.intervals)

    def lambda_product(self, prec: int = DEFAULT_PREC):
        """prod lambda_{a_i,b_i}^{r_i}, the limiting expected count."""
        with mp.workprec(prec):
            total = mpmath.mpf(1)
            for lam, r in zip(self.lambda_targets(prec),
                              self.multiplicities):
                total *= lam ** r
            return +total


@dataclass(frozen=True)
class PointSample:
    """A realization of a point process: sorted positive points."""

    points: tuple

    def count_in(self, a: float, b: float) -> int:
        return sum(1 for t in self.points if a <= t <= b)

    def __len__(self):
        return len(self.points)


def expected_nonseparating_count(g: int, mu, windows: IntervalSet,
                                 prec: int = DEFAULT_PREC, cache=None):
    """Expected number of non-separating tight multicurve hits.

    T_g(mu)^-1 2^-r int over the c(mu)-scaled windows of
    T_{g-r,2r}(x_1, x_1, ..., x_r, x_r, mu) x_1...x_r dx, where each cut
    curve contributes two equal boundary entries and c(mu) =
    sqrt(-M_1/(12 M_0)) is half of ``MomentFrame.length_scale``, as in
    ``normalization``.  The integrand is polynomial in the x_i^2:
    ``boltzmann.cell_groups`` gives P_{g-r,2r} at the moment values
    grouped by ell-key, the same held groups ``t_value`` reads, and the
    signed sum of the group with key l is weighted by prod_i
    w_i[l_{2i} + l_{2i+1}], the closed-form window integrals.  T_g(mu)
    is ``boltzmann.t_value`` at (g, 0), so the count is one plain mpf
    quotient.
    """
    r = windows.total_order
    if g - r < 0 or not admissible(g - r, 2 * r):
        raise DomainError(
            f"cut topology (g-r, 2r) = ({g - r},{2 * r}) inadmissible")
    with mp.workprec(prec):
        mu = mpmath.mpf(mu)
        if not 0 < mu < mu_critical(prec):
            raise DomainError("expected counts need 0 < mu < mu_c")
        frame, groups = cell_groups(g - r, 2 * r, mu, prec, cache)
        c = frame.length_scale() / 2
        bounds = [(c * mpmath.mpf(a), c * mpmath.mpf(b))
                  for a, b in windows.expanded()]

        # window-power table: w_table[i][Q] = int_{ca}^{cb} x^(2Q+1) dx
        max_q = max((sum(key) for key in groups), default=0)
        w_table = [[(hi ** t - lo ** t) / t
                    for t in range(2, 2 * max_q + 3, 2)] for lo, hi in bounds]

        total = mpmath.mpf(0)
        for key, (t, _) in groups.items():
            t = mp.make_mpf(t)
            for i in range(r):
                t *= w_table[i][key[2 * i] + key[2 * i + 1]]
            total += t
        # P_{g-r,2r} over M_0^(2g-2) is T_{g-r,2r}, since 2(g-r)-2+2r = 2g-2
        t_g = t_value(g, 0, [], mu, prec, cache)
        return +(total / frame.moments[0] ** (2 * g - 2) / t_g
                 / mpmath.mpf(2) ** r)


def mp_convergence_table(g_range: Sequence[int], beta: float,
                         windows: IntervalSet,
                         prec: int = DEFAULT_PREC, cache=None,
                         allow_small_beta: bool = False):
    """Rows (g, mu_g, expected count, lambda target, ratio) with
    mu_g = mu_c - g^(-beta).

    The limit regime needs mu_c - mu_g = o(g^-2), hence the beta > 2
    gate; pass allow_small_beta=True to explore outside it anyway.  An
    empty genus range is refused.
    """
    if not g_range:
        raise DomainError("the genus range is empty")
    if not beta > 2 and not allow_small_beta:
        raise DomainError(
            f"beta={beta} rejected: the limit law needs mu_c - mu_g "
            "= o(g^-2), i.e. beta > 2 (use the override to explore)")
    with mp.workprec(prec):
        muc = mu_critical(prec)
        target = windows.lambda_product(prec)
        if target == 0:
            raise DomainError("a zero-width window has lambda = 0, so the "
                              "ratio to it is undefined")
        rows = []
        for g in g_range:
            if g < 1:
                raise DomainError(f"genus {g} is below 1; start the genus "
                                  "range higher")
            mu_g = muc - mpmath.mpf(g) ** mpmath.mpf(-beta)
            if mu_g <= 0:
                raise DomainError(
                    f"mu_c - {g}^(-{beta}) is not positive; start the "
                    "genus range higher")
            count = expected_nonseparating_count(g, mu_g, windows, prec,
                                                 cache)
            rows.append({
                "g": g,
                "mu": +mu_g,
                "expected_count": +count,
                "lambda_target": +target,
                "ratio": +(count / target),
            })
        return rows


# -- seeded samplers ----------------------------------------------------------


def _poisson_draw(rng: _Stream, lam: float) -> int:
    """Inverse-CDF Poisson draw; refuses a lam whose exp(-lam) is not a
    positive float, since the CDF would then never pass u."""
    p = math.exp(-lam) if math.isfinite(lam) else 0.0
    if p == 0.0:
        raise DomainError(f"Poisson mean {lam} is not finite or exp(-mean) "
                          "underflows")
    u = rng.random()
    k = 0
    cdf = p
    while u > cdf:
        k += 1
        p *= lam / k
        cdf += p
        if k > 10_000_000:  # pragma: no cover - unreachable for sane lam
            raise DomainError("Poisson draw ran away; lambda too large")
    return k


def _slope(t: float) -> float:
    """d lambda_{0,t}/dt = (cosh t - 1)/t, taken as its series
    t/2 + t^3/24 near t = 0."""
    return t / 2 + t ** 3 / 24 if t < 1e-2 else (math.cosh(t) - 1) / t


_KNOT_STEP = 1 / 32


def _knot_table() -> tuple:
    """(_intensity_f(t), 1/slope(t)) at the knots t = j/32, j = 0, 1, ...,
    up to the first knot whose exp(-lambda) underflows; _poisson_draw
    refuses any t_max at or past that knot."""
    lams, inv_slopes = [], []
    while not lams or math.exp(-lams[-1]) > 0.0:
        t = len(lams) * _KNOT_STEP
        lams.append(_intensity_f(t))
        inv_slopes.append(1 / _slope(t) if t else math.inf)
    return tuple(lams), tuple(inv_slopes)


_KNOT_LAM, _KNOT_INV_SLOPE = _knot_table()


def sample_poisson_process(t_max: float, seed: int) -> PointSample:
    """One realization of the limiting process on [0, t_max].

    Draws N ~ Poisson(lambda_{0,t_max}), then N i.i.d. points with
    density (cosh t - 1)/t / lambda_{0,t_max} by inverting the CDF: each
    point solves lambda_{0,t} = u for a uniform u in [0, lambda_{0,t_max})
    by Newton's method (moments._newton_root) on the bracket
    [t_j, min(t_(j+1), t_max)] between the knots t_j = j/32 whose
    lambda values hold u, read by bisecting a table of lambda and
    1/slope at the knots.  Newton starts at the cubic-Hermite interpolant
    of the inverse function t(u) over that bracket, which is within about
    1e-9 of the root past the first knots, so a point takes about two
    evaluations of the float intensity.  On the first bracket, where
    t(u) ~ 2 sqrt(u) has an infinite slope at 0, it starts at
    2 sqrt(u), right of the root because lambda_{0,t} >= t^2/4.
    The seed's stream gives the count's uniform first and then the N
    point uniforms in one read.  Deterministic for a fixed seed.
    """
    if not t_max > 0:
        raise DomainError("t_max must be positive")
    t_max = float(t_max)
    rng = _rng(seed)
    lam = _intensity_f(t_max)
    n = _poisson_draw(rng, lam)
    pts = []
    for u in rng.randoms(n):
        u *= lam
        j = bisect_right(_KNOT_LAM, u) - 1
        lo = j * _KNOT_STEP
        hi = min(lo + _KNOT_STEP, t_max)
        if j:
            # the cubic in x = (u - u0)/du through t = lo and lo + step
            # with slopes dt/dx = du/slope at both ends
            u0 = _KNOT_LAM[j]
            du = _KNOT_LAM[j + 1] - u0
            x = (u - u0) / du
            d0 = du * _KNOT_INV_SLOPE[j]
            d1 = du * _KNOT_INV_SLOPE[j + 1]
            c2 = 3 * _KNOT_STEP - 2 * d0 - d1
            c3 = d0 + d1 - 2 * _KNOT_STEP
            x0 = min(max(lo + x * (d0 + x * (c2 + x * c3)), lo), hi)
        else:
            x0 = min(2 * math.sqrt(u), hi)

        def fdf(t, u=u):
            return _intensity_f(t) - u, _slope(t)

        pts.append(_newton_root(fdf, lo, hi, x0, 2.0 ** -50))
    return PointSample(points=tuple(sorted(pts)))


_pmf_cache: dict = {}


def _cached_pmf(g: int, mu, prec: int, cache):
    """cusp_pmf(g, mu, prec), memoized on the exact value of mu.

    A caller's own (g, mu, prec) is looked up first.  On a miss mu is
    rounded to a prec-bit mpf key, as cusp_pmf rounds it, and the entry
    is stored under both keys; equal values round to equal keys.
    """
    pmf = _pmf_cache.get((g, mu, prec))
    if pmf is None:
        with mp.workprec(prec):
            key = (g, mpmath.mpf(mu), prec)
        pmf = _pmf_cache.get(key)
        if pmf is None:
            pmf = _pmf_cache[key] = cusp_pmf(g, mu, prec=prec, cache=cache)
        _pmf_cache[(g, mu, prec)] = pmf
    return pmf


def sample_cusp_count(g: int, mu, seed: int,
                      prec: int = DEFAULT_PREC, cache=None) -> int:
    """Inverse-CDF draw of the cusp count; deterministic per seed.

    The first p with u <= cdf[p], found by bisection; a u past the last
    running sum draws the last index.
    """
    cdf = _cached_pmf(g, mu, prec, cache).cdf
    return min(bisect_left(cdf, _rng(seed).random()), len(cdf) - 1)
