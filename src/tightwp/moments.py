"""Bessel moment machinery.

With c = -2 pi^2, F(r) = sum c^m r^(m+1) / (m! (m+1)!) and
f_k(r) = sum c^(m+k) r^m / (m! (m+k)!), the root R(mu) solves F(R) = mu
and the moments are M_k = f_k(R); F(r) = sqrt(r)/(sqrt(2) pi)
J_1(2 pi sqrt(2 r)) and f_k(r) = (-sqrt(2) pi / sqrt(r))^k
J_k(2 pi sqrt(2 r)).

Numeric side: two series routines give every value.  _z_and_slope sums
Z(r, mu) = F(r) - mu and its slope f_0(r) in one pass over the powers
(c r)^m; it gives z_value, each Newton step of solve_r, and mu_c =
F(r_max) with r_max = j_0^2/(8 pi^2).  _f sums f_k, which gives the
moments M_k = f_k(R).  Through J_1(j_0) = 4 pi^2 mu_c / j_0, mu_c also
gives the constant alpha1.  Only
j_0, the first zero of J_0, comes from mpmath.  Monotone equations are
solved by _newton_root, a Newton iteration that keeps a bracket around
the root and bisects when a Newton step would leave it; the layer's
derivatives are all in closed form.

Exact side: the formal mu-series of R and of every M_k, each a MuSeries
of single-power-of-pi^2 coefficients (int numerators over one common
denominator, so products and sums run on ints), plus the extraction of
classical Weil-Petersson volumes V_{g,n+p}(0) from the cusp generating
function.  Since F' = f_0, f_k' = f_(k+1) and r f_1 = c F, the series obey
(i) R' M_0 = 1 and (ii) (M_0^2)' R = 2 c mu, so M_0' R = c mu R'.  Each
gives the next coefficient of R or M_0 from one int dot product, O(p^2)
to order p in all.  Then M_(k+1) = M_0 M_k', so the ratios m_k = M_k/M_0
are m_1 = M_0' and m_(k+1) = (M_0 m_k)', and 1/M_0 = R': one product
and one derivative per k, with no series inverse and no powers of R.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
import mpmath
from mpmath import mp
from mpmath.libmp import (fone, from_int, mpf_abs, mpf_add, mpf_div, mpf_gt,
                          mpf_mul, mpf_pos, mpf_sub, round_nearest as _RN)

from tightwp import tightpoly
from tightwp.errors import DomainError
from tightwp.ring import DEFAULT_PREC, MuSeries, PiPoly


def _newton_root(fdf, lo, hi, x0, rel_tol):
    """Root of an increasing f on [lo, hi] with f(lo) <= 0 <= f(hi).

    fdf(x) returns (f(x), f'(x)).  Each evaluation narrows the bracket by
    the sign of f.  The Newton step is taken when f' > 0, the step lands
    strictly inside the bracket and it is at most half the previous step;
    otherwise the bracket is bisected, so convergence is never slower than
    bisection.  Stops once the Newton step, or the bracket, is within
    rel_tol of x; rel_tol must exceed the unit roundoff of the arithmetic.
    Only generic arithmetic is used, so floats and mpf both work.
    """
    x = x0
    last = hi - lo
    while True:
        f, df = fdf(x)
        if f == 0:
            return x
        if f < 0:
            lo = x
        else:
            hi = x
        newton = df > 0
        if newton:
            step = f / df
            if abs(step) <= rel_tol * abs(x):
                return x - step
            newton = lo < x - step < hi and 2 * abs(step) <= abs(last)
        if not newton:
            step = x - (lo + hi) / 2
            if 2 * abs(step) <= rel_tol * abs(x):
                return x - step
        x -= step
        last = step


@functools.cache
def _series_start(k: int, wp: int) -> tuple:
    """(c, c^k/k!, 2^-(wp-8)) as raw mpf at wp bits, c = -2 pi^2, each
    formed as the mpf operators form it at that precision."""
    with mp.workprec(wp):
        c = -2 * mp.pi ** 2
        first = c ** k / mpmath.factorial(k)
        return c._mpf_, first._mpf_, (mpmath.mpf(2) ** (8 - wp))._mpf_


def _above(term, total, cutoff, wp: int) -> bool:
    """The series' continue test |term| > cutoff (|total| + cutoff), with
    the sum rounded to nearest at wp bits."""
    return mpf_gt(mpf_abs(term), mpf_mul(
        cutoff, mpf_add(mpf_abs(total), cutoff, wp, _RN), wp, _RN))


def _f(k: int, r, prec: int):
    """f_k(r) = sum_m c^(m+k) r^m / (m! (m+k)!) with c = -2 pi^2, at
    prec + 16 bits.

    Terms are added until one falls below 2^-(prec+8) of the sum.  For
    0 <= r <= 1, which holds the bracket [0, r_max], no term exceeds 2^9
    times the first, c^k/k!, so rounding costs at most about 10 of the 16
    guard bits, measured against that first term.  The loop runs on raw
    mpf tuples, each libmp call rounded to nearest at prec + 16, as the
    mpf operators round inside mp.workprec(prec + 16); r is read as given
    (an int or float exactly).
    """
    wp = prec + 16
    c, term, cutoff = _series_start(k, wp)
    cr = mpf_mul(c, mpmath.mpf.mpf_convert_rhs(r), wp, _RN)
    total = term
    m = 0
    while _above(term, total, cutoff, wp):
        m += 1
        term = mpf_div(mpf_mul(term, cr, wp, _RN), from_int(m * (m + k)),
                       wp, _RN)
        total = mpf_add(total, term, wp, _RN)
    return mp.make_mpf(total)


def _z_and_slope(r, mu, prec: int):
    """(Z(r, mu), f_0(r)) for a Newton step of solve_r, from one pass over
    p_m = (c r)^m / m!^2: f_0 = sum p_m and, as r f_1(r) / c = F(r),
    Z = r sum p_m / (m + 1) - mu.  Both sums get _f's guard bits,
    stopping rule and raw-tuple arithmetic; Z is rounded to prec bits."""
    wp = prec + 16
    c, _, cutoff = _series_start(0, wp)
    r = mpmath.mpf.mpf_convert_rhs(r)
    cr = mpf_mul(c, r, wp, _RN)
    p = q = f0 = s = fone
    m = 0
    while _above(p, f0, cutoff, wp) or _above(q, s, cutoff, wp):
        m += 1
        p = mpf_div(mpf_mul(p, cr, wp, _RN), from_int(m * m), wp, _RN)
        q = mpf_div(p, from_int(m + 1), wp, _RN)
        f0 = mpf_add(f0, p, wp, _RN)
        s = mpf_add(s, q, wp, _RN)
    val = mpf_sub(mpf_mul(r, s, wp, _RN), mpmath.mpf.mpf_convert_rhs(mu),
                  wp, _RN)
    return mp.make_mpf(mpf_pos(val, prec, _RN)), mp.make_mpf(f0)


def z_value(r, mu, prec: int = DEFAULT_PREC):
    """Z(r, mu) = F(r) - mu for 0 <= r <= 1, as a Newton step of solve_r
    reads it from _z_and_slope; F is sqrt(r)/(sqrt(2) pi)
    J_1(2 pi sqrt(2 r)) as a power series in r."""
    with mp.workprec(prec + 16):
        r = mpmath.mpf(r)
        mu = mpmath.mpf(mu)
        if not 0 <= r <= 1:
            raise DomainError(f"Z needs 0 <= r <= 1, got r={r}")
    return _z_and_slope(r, mu, prec)[0]


@functools.cache
def find_j0(prec: int = DEFAULT_PREC):
    """First positive zero of J_0, as mpmath.besseljzero gives it at
    prec + 16 bits; cached per precision."""
    with mp.workprec(prec + 16):
        return mpmath.besseljzero(0, 1)


@functools.cache
def mu_critical(prec: int = DEFAULT_PREC):
    """mu_c = F(r_max) = j_0 J_1(j_0) / (4 pi^2) = 0.0316..., cached per
    precision, since every root solve and frame reads it.

    F' = f_0 vanishes at r_max, so rounding r_max to prec bits moves
    F(r_max) by a second-order amount only.
    """
    return z_value(r_max(prec), 0, prec)


def r_max(prec: int = DEFAULT_PREC):
    """R(mu_c) = j_0^2 / (8 pi^2), the right end of the solver bracket."""
    with mp.workprec(prec + 16):
        j0 = find_j0(prec)
        val = j0 ** 2 / (8 * mp.pi ** 2)
    with mp.workprec(prec):
        return +val


def solve_r(mu, prec: int = DEFAULT_PREC):
    """The unique root of Z(., mu) in [0, r_max = j_0^2/(8 pi^2)], by
    Newton's method (_newton_root).

    On the bracket Z is strictly increasing, dZ/dr = f_0(r) =
    J_0(2 pi sqrt(2r)) > 0, and concave, with Z(0, mu) = -mu <= 0 and Z(r_max, mu) =
    mu_c - mu >= 0.  Since dZ/dr vanishes at r_max, the root is nearly
    double for mu close to mu_c, and Newton started far from it would
    only halve the error per step.  It starts instead from the larger of
    two lower bounds of the root: mu, the root of the tangent r - mu at
    r = 0, and the root of the quadratic model (mu_c - mu) -
    b (r_max - r)^2 with b = -Z''(r_max)/2 = pi^2 mu_c / r_max.  Newton
    on a concave increasing function climbs monotonically from the left.
    """
    with mp.workprec(prec + 16):
        mu = mpmath.mpf(mu)
        muc = mu_critical(prec)
        if not 0 <= mu <= muc * (1 + mpmath.mpf(2) ** (-prec + 4)):
            raise DomainError(f"mu={mu} outside [0, mu_c]")
        if mu == 0:
            return mpmath.mpf(0)
        hi = r_max(prec)
        if mu >= muc:
            return hi

        x0 = max(mu, hi - mpmath.sqrt((muc - mu) * hi / muc) / mp.pi)
        return _newton_root(lambda r: _z_and_slope(r, mu, prec),
                            mpmath.mpf(0), hi, x0, mpmath.mpf(2) ** -prec)


def moment(k: int, mu, prec: int = DEFAULT_PREC):
    """M_k(mu) = f_k(R) at R = R(mu); M_k(0) = (-2 pi^2)^k / k!."""
    if k < 0:
        raise DomainError("moment index must be >= 0")
    val = _f(k, solve_r(mu, prec), prec)
    with mp.workprec(prec):
        return +val


def alpha1(prec: int = DEFAULT_PREC):
    """Normalization constant sqrt((6/pi) sqrt(2 j_0 / J_1(j_0))).

    With J_1(j_0) = 4 pi^2 mu_c / j_0 and r_max = j_0^2 / (8 pi^2) this is
    sqrt((12/pi) sqrt(r_max / mu_c)).
    """
    with mp.workprec(prec + 16):
        val = mpmath.sqrt(12 / mp.pi
                          * mpmath.sqrt(r_max(prec) / mu_critical(prec)))
    with mp.workprec(prec):
        return +val


def alpha2(prec: int = DEFAULT_PREC):
    """Normalization constant (1/pi) sqrt(3 j_0 sqrt(5))."""
    with mp.workprec(prec + 16):
        j0 = find_j0(prec)
        val = mpmath.sqrt(3 * j0 * mpmath.sqrt(mpmath.mpf(5))) / mp.pi
    with mp.workprec(prec):
        return +val


@dataclass(frozen=True)
class MomentFrame:
    """Numeric snapshot (mu, R(mu), M_0..M_D) at a fixed precision.

    mu is the value the frame was built from, held at precision + 16 bits.
    """

    mu: object
    r_value: object
    moments: tuple
    precision: int

    @property
    def d_max(self) -> int:
        return len(self.moments) - 1

    def length_scale(self):
        """sqrt(-M_1/(3 M_0)) at the frame's precision: the factor
        boltzmann.boundary_ratio puts on the lengths, and twice the c(mu)
        of spectrum.normalization.  Needs d_max >= 1."""
        with mp.workprec(self.precision):
            return mpmath.sqrt(-self.moments[1] / (3 * self.moments[0]))

    def m_ratios(self) -> tuple:
        """(M_1/M_0, ..., M_D/M_0), the values substituted for m_k, formed
        at the frame's precision whatever the caller's mp.prec."""
        m0 = self.moments[0]
        with mp.workprec(self.precision):
            return tuple(mk / m0 for mk in self.moments[1:])


def make_frame(mu, d_max: int, prec: int = DEFAULT_PREC) -> MomentFrame:
    """Build a MomentFrame with moments M_0..M_{d_max}."""
    if d_max < 0:
        raise DomainError("d_max must be >= 0")
    with mp.workprec(prec + 16):
        mu = mpmath.mpf(mu)
        if not 0 <= mu < mu_critical(prec):
            raise DomainError(f"mu={mu} outside [0, mu_c)")
        r = solve_r(mu, prec)
    return _resized(MomentFrame(mu=mu, r_value=r, moments=(),
                                precision=prec), d_max)


def _resized(frame: MomentFrame, d_max: int) -> MomentFrame:
    """The frame at the same mu and R(mu) holding M_0..M_{d_max}: a prefix
    of frame's moments, extended at frame.r_value where it is too short.
    A moment depends on R alone, so the values do not depend on d_max."""
    have, prec = frame.moments, frame.precision
    wide = [_f(k, frame.r_value, prec) for k in range(len(have), d_max + 1)]
    with mp.workprec(prec):
        moms = have[:d_max + 1] + tuple(+v for v in wide)
    return MomentFrame(mu=frame.mu, r_value=frame.r_value, moments=moms,
                       precision=frame.precision)


_frame_cache: dict = {}  # (mu, prec) -> {d_max: MomentFrame}


def cached_frame(mu, d_max: int, prec: int = DEFAULT_PREC) -> MomentFrame:
    """make_frame with memoization; frames are immutable and shareable.

    The key is (mu, prec), with mu exactly as make_frame converts it, at
    prec + 16 bits, so R(mu) is solved once per key.  A frame for a new
    d_max is cut from, or extended beyond, the widest one held for the key.
    """
    if d_max < 0:
        raise DomainError("d_max must be >= 0")
    with mp.workprec(prec + 16):
        key = (mpmath.mpf(mu), prec)
    frames = _frame_cache.get(key)
    if frames is None:
        frame = make_frame(mu, d_max, prec)
        _frame_cache[key] = {d_max: frame}
        return frame
    frame = frames.get(d_max)
    if frame is None:
        frame = frames[d_max] = _resized(frames[max(frames)], d_max)
    return frame


# -- exact formal series ----------------------------------------------------

def _r_and_m0(order: int) -> tuple:
    """(R, M_0) as MuSeries of the given order >= 1.

    With pi^2 scaled out, u[n] = n! (n-1)! [mu^n] R and y[n] = n!^2
    [mu^n] M_0 are ints.  At mu^n, (ii) as M_0' R = c mu R' gives y[n],
    then (i) gives u[n+1].  (i) has int weights; with u[1..n] integral,
    so is n!^2 [mu^n] R^m / m!^2, hence y[n] = n!^2 [mu^n] f_0(R), so
    (ii)'s division by n + 1 is exact.
    """
    u, y = [0, 1], [1]
    for n in range(1, order + 1):
        acc = sum(math.comb(n + 1, i) * math.comb(n - 1, i - 1)
                  * y[i] * u[n + 1 - i] for i in range(1, n))
        y.append(-2 * n * u[n] - acc // (n + 1))
        u.append(-sum(math.comb(n, i) ** 2 * u[i + 1] * y[n - i]
                      for i in range(n)))
    fact = [math.factorial(n) for n in range(order + 1)]
    den_r = fact[order] * fact[order - 1]
    r = MuSeries._raw([0] + [u[n] * (den_r // (fact[n] * fact[n - 1]))
                             for n in range(1, order + 1)], den_r, -1)
    m0 = MuSeries._raw([y[n] * (fact[order] // fact[n]) ** 2
                        for n in range(order + 1)], fact[order] ** 2, 0)
    return r, m0


def _ratios(m0: MuSeries, d: int) -> list:
    """[m_1, ..., m_d] with m_k = M_k/M_0, from m_1 = M_0' and
    m_(k+1) = (M_0 m_k)'; m_k is k orders shorter than m0."""
    out = []
    for _ in range(d):
        out.append((m0 * out[-1] if out else m0).derivative())
    return out


def r_series(order: int) -> MuSeries:
    """R(mu), the root of Z(R(mu), mu) = 0 with R(0) = 0, as an exact
    MuSeries; [mu^j] R is a rational times pi^(2j-2)."""
    if order < 1:
        raise DomainError("r_series needs order >= 1")
    return _r_and_m0(order)[0]


def moment_series(k: int, order: int) -> MuSeries:
    """M_k(mu) as an exact MuSeries: M_0 = f_0(R), M_k = M_0 m_k."""
    if k < 0 or order < 0:
        raise DomainError("moment_series needs k >= 0, order >= 0")
    m0 = _r_and_m0(max(order + k, 1))[1]
    mk = m0 * _ratios(m0, k)[-1] if k else m0
    return mk.truncate(order)


def t_volume_series(g: int, n: int, order: int, cache=None) -> MuSeries:
    """Exact MuSeries of T_{g,n}(0, mu) = M_0^-(2g-2+n) P_{g,n}(0, M).

    The L = 0 terms of P_{g,n} read at m_k = M_k/M_0 through
    ``TightPoly.subst_m``, times R'^(2g-2+n).
    """
    cell = tightpoly.p_gn(g, n, cache=cache)
    r, m0 = _r_and_m0(order + max(cell.d, 1))
    m0inv = r.derivative().truncate(order)
    ratios = [m.truncate(order) for m in _ratios(m0, cell.d)]
    zero = (0,) * n
    part = cell.poly.ell_slice(zero)
    got = part.subst_m(ratios, [MuSeries([q], order=order)
                                for q in part.terms.values()])
    total = got.get(zero, MuSeries.zero(order))
    return total * m0inv ** (2 * g - 2 + n)


# The most work volume_extract may start, in units of the terms of the
# ell = 0 slice of P_{g,n} times pmax^3 (series_work).  Cold, a unit of
# (g, 0) took 2.7e-8 to 8.2e-8 s up to pmax 400 and 1.4e-7 s at (2, 700)
# (Python 3.11, one core of a 2-vCPU host); (2, 400), 1.9e8 units, took
# 15.7 s.  So 2e8 caps an extraction at about 15 s (pmax 405 at g = 2,
# 262 at g = 3).
SERIES_WORK_MAX = 2 * 10 ** 8


def series_work(g: int, n: int, pmax: int) -> int:
    """The work of extracting V_{g,n+p}(0) for p <= pmax, in the units of
    SERIES_WORK_MAX."""
    return tightpoly.graded_count(3 * g - 3 + n, 0) * pmax ** 3


def volume_extract(g: int, n: int, pmax: int, cache=None) -> list:
    """Exact V_{g,n+p}(0) for p = 0..pmax, each a PiPoly q pi^(2j).

    Expands T_{g,n}(0, mu) as a MuSeries and reads off p! [mu^p]; the
    identity T_{g,n,p}(L, 0^p) at L = 0 with V_{g,n+p}(0) makes the
    coefficients classical Weil-Petersson volumes.  The values do not
    depend on mu, so the cell keeps one list (``PolyCell.volumes``).  A
    pmax at or below the held order gets a prefix, which is exact because
    a series of lower order is a truncation; a higher pmax rebuilds and
    replaces the list.  A pmax whose series_work passes SERIES_WORK_MAX
    is refused (DomainError) before the cell or any series is built.
    """
    if pmax < 0:
        raise DomainError("pmax must be >= 0")
    work = series_work(g, n, pmax)
    if work > SERIES_WORK_MAX:
        raise DomainError(f"volume_extract({g}, {n}, {pmax}) takes "
                          f"{work:.3g} units of work, over the bound "
                          f"{SERIES_WORK_MAX:.0e}; use a smaller pmax")
    held = tightpoly.p_gn(g, n, cache=cache).volumes
    if len(held) <= pmax:
        series = t_volume_series(g, n, pmax, cache=cache)
        held[:] = [PiPoly(c.q * math.factorial(p), c.j)
                   for p, c in enumerate(series.coeffs()[:pmax + 1])]
    return held[:pmax + 1]
