"""psi-class intersection numbers via the Virasoro/DVV recursion.

``intersection_number`` returns the exact rational
<tau_{d_1} ... tau_{d_n}>_g, memoized on a canonical key.  The reduction
order is: dimension gate, base cases, string equation (removes a tau_0),
dilaton equation (removes a tau_1 when nothing larger is left), then the
Virasoro recursion applied to the largest index.  Genus bookkeeping in
the Virasoro step: the first sum keeps the genus, the joint tau_r tau_s
term drops it by one, and the splitting term runs over g_1 + g_2 = g
with stable factors only.

The splitting sum is collapsed from subsets to sub-multisets with
binomial weights, which turns <tau_2^m>-type keys from exponential to
polynomial work.  The memo cache supports concurrent readers; writes are
single dict inserts (atomic under the GIL) and recomputing a key is
idempotent, so no locking is needed.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import mpmath
from mpmath import mp

from tightwp.errors import DomainError, UnstableKeyError
from tightwp.ring import DEFAULT_PREC, Rational, to_mpf

_R0 = Rational(0)
_R1 = Rational(1)

_DFACT = [1, 1]  # index k holds k!!; the convention (-1)!! = 1 is handled below


def dfact(n: int) -> int:
    """n!! with the convention (-1)!! = 0!! = 1."""
    if n <= 0:
        return 1
    while len(_DFACT) <= n:
        k = len(_DFACT)
        _DFACT.append(_DFACT[k - 2] * k)
    return _DFACT[n]


@dataclass(frozen=True)
class TauKey:
    """Canonical correlator key: genus plus indices sorted descending."""

    genus: int
    indices: tuple

    @classmethod
    def make(cls, genus: int, indices: Iterable[int]) -> "TauKey":
        idx = tuple(sorted((int(d) for d in indices), reverse=True))
        if genus < 0:
            raise DomainError(f"negative genus {genus}")
        if any(d < 0 for d in idx):
            raise DomainError(f"negative tau index in {idx}")
        if 2 * genus - 2 + len(idx) <= 0:
            raise UnstableKeyError(
                f"unstable key g={genus}, n={len(idx)}")
        return cls(genus, idx)

    @property
    def n(self) -> int:
        return len(self.indices)

    @property
    def dimension(self) -> int:
        return 3 * self.genus - 3 + self.n


_memo: dict = {}


def cache_size() -> int:
    return len(_memo)


def clear_cache():
    _memo.clear()


def _multiplicities(d: Sequence[int]):
    out = {}
    for v in d:
        out[v] = out.get(v, 0) + 1
    return out


def _compute(g: int, d: tuple) -> Rational:
    """Recursive worker; d is sorted descending and dimension-correct."""
    key = (g, d)
    val = _memo.get(key)
    if val is not None:
        return val

    if g == 0 and d == (0, 0, 0):
        _memo[key] = _R1
        return _R1
    if g == 1 and d == (1,):
        val = Rational(1, 24)
        _memo[key] = val
        return val

    if d[-1] == 0:
        # string equation: remove one tau_0
        rest = d[:-1]
        total = _R0
        for v, mv in _multiplicities(rest).items():
            if v == 0:
                continue
            child = _remove_one(rest, v) + (v - 1,)
            total += mv * _compute(g, _sort_desc(child))
        _memo[key] = total
        return total

    if d[0] == 1:
        # dilaton equation: all remaining indices are 1
        rest = d[1:]
        val = (2 * g - 2 + len(rest)) * _compute(g, rest)
        _memo[key] = val
        return val

    # Virasoro step on the largest index
    k = d[0] - 1
    rest = d[1:]
    mults = _multiplicities(rest)

    s1 = _R0
    for v, mv in mults.items():
        child = _sort_desc(_remove_one(rest, v) + (k + v,))
        s1 += Rational(mv * dfact(2 * (k + v) + 1), dfact(2 * v - 1)) \
            * _compute(g, child)

    s23 = _R0
    for r in range(k):
        s = k - 1 - r
        w_rs = dfact(2 * r + 1) * dfact(2 * s + 1)
        if g >= 1:
            child = _sort_desc(rest + (r, s))
            s23 += w_rs * _compute(g - 1, child)
        # splitting term over ordered sub-multisets of rest
        values = sorted(mults)
        counts = [mults[v] for v in values]
        for take in itertools.product(*(range(c + 1) for c in counts)):
            size_i = sum(take)
            sum_i = sum(v * t for v, t in zip(values, take))
            # factor 1 dimension pins its genus: 3 g1 - 3 + |I| + 1 = r + sum(I)
            num = r + sum_i + 2 - size_i
            if num % 3:
                continue
            g1 = num // 3
            g2 = g - g1
            if g1 < 0 or g2 < 0:
                continue
            if 2 * g1 - 2 + size_i + 1 <= 0:
                continue
            if 2 * g2 - 2 + (len(rest) - size_i) + 1 <= 0:
                continue
            weight = 1
            for c, t in zip(counts, take):
                weight *= math.comb(c, t)
            part_i = []
            part_j = []
            for v, c, t in zip(values, counts, take):
                part_i += [v] * t
                part_j += [v] * (c - t)
            f1 = _compute(g1, _sort_desc(tuple(part_i) + (r,)))
            if not f1:
                continue
            f2 = _compute(g2, _sort_desc(tuple(part_j) + (s,)))
            s23 += (w_rs * weight) * f1 * f2

    val = (s1 + s23 / 2) / dfact(2 * k + 3)
    _memo[key] = val
    return val


def _sort_desc(t) -> tuple:
    return tuple(sorted(t, reverse=True))


def _remove_one(t: tuple, v) -> tuple:
    out = list(t)
    out.remove(v)
    return tuple(out)


def intersection_number(key, indices=None) -> Rational:
    """Exact <tau_{d_1} ... tau_{d_n}>_g.

    Accepts a TauKey or (genus, indices).  Returns 0 whenever the
    dimension constraint sum d_i = 3g - 3 + n fails; raises on unstable
    or malformed keys.
    """
    if not isinstance(key, TauKey):
        key = TauKey.make(key, indices)
    if sum(key.indices) != key.dimension:
        return _R0
    if sys.getrecursionlimit() < 50_000:
        sys.setrecursionlimit(50_000)
    return _compute(key.genus, key.indices)


def tau2_correlator(g: int, extra: Sequence[int] = ()) -> Rational:
    """<tau_{e_1}...tau_{e_j} tau_2^t>_g with t chosen to saturate the
    dimension constraint; 0 if no such t >= 0 exists."""
    tail = 3 * g - 3 + len(extra) - sum(extra)
    if tail < 0:
        raise DomainError("dimension violation: sum of indices too large")
    return intersection_number(g, tuple(extra) + (2,) * tail)


def mp_asymptotic_ratio(g: int, pvec: Sequence[int],
                        prec: int = DEFAULT_PREC):
    """Exact <tau_{p_1}..tau_{p_k} tau_2^(3g-3+k-|p|)>_g divided by its
    large-genus closed-form estimate; tends to 1 as g grows."""
    pvec = tuple(int(p) for p in pvec)
    if g < 2:
        raise DomainError("asymptotic ratio needs g >= 2")
    if any(p < 2 for p in pvec):
        raise DomainError("all entries of pvec must be >= 2")
    if sum(p - 1 for p in pvec) > 3 * g - 3:
        raise DomainError("dimension violation")
    k = len(pvec)
    t = 3 * g - 3 + k - sum(pvec)
    if t < 0:
        raise DomainError("dimension violation")
    exact = intersection_number(g, pvec + (2,) * t)
    with mp.workprec(prec):
        rhs = mpmath.mpf(15) ** k * mpmath.mpf(g) ** (2 * k - sum(pvec))
        for p in pvec:
            rhs /= dfact(2 * p + 1)
        rhs *= (mpmath.mpf(25) / 24) ** g
        rhs *= mpmath.mpf(2) ** (g - 1) * mpmath.sqrt(mpmath.mpf(3) / 5)
        rhs *= mpmath.factorial(3 * g - 3) * mpmath.factorial(g - 1) ** 2
        rhs /= mp.pi ** 2 * (5 * g - 5) * (5 * g - 3)
        return to_mpf(exact, prec) / rhs


def check_comparison_bound(g: int, pvec: Sequence[int],
                           qvec: Sequence[int]) -> bool:
    """Exact check of the uniform comparison inequality between
    correlators with and without the q-block of extra insertions.

    Both sides are evaluated as exact rationals:

      <prod tau_{q_i+1} prod tau_{p_i+1} tau_2^(3g-3-|p|-|q|)>_g
      ----------------------------------------------------------
                    (3g-3-|p|-|q|)!

        <=  <prod tau_{p_i+1} tau_2^(3g-3-|p|)>_g   3^|q| (15 g)^r
            -------------------------------------  ----------------
                       (3g-3-|p|)!                 prod (2q_i+3)!!
    """
    pvec = tuple(int(p) for p in pvec)
    qvec = tuple(int(q) for q in qvec)
    if g < 2:
        raise DomainError("comparison bound needs g >= 2")
    if any(p < 1 for p in pvec) or any(q < 1 for q in qvec):
        raise DomainError("p and q entries must be >= 1")
    ap, aq = sum(pvec), sum(qvec)
    if ap + aq > 3 * g - 3:
        raise DomainError("dimension violation: |p| + |q| > 3g - 3")
    r = len(qvec)
    lhs_corr = tau2_correlator(
        g, tuple(q + 1 for q in qvec) + tuple(p + 1 for p in pvec))
    lhs = lhs_corr / math.factorial(3 * g - 3 - ap - aq)
    rhs_corr = tau2_correlator(g, tuple(p + 1 for p in pvec))
    rhs = rhs_corr / math.factorial(3 * g - 3 - ap)
    rhs *= Rational(3 ** aq * (15 * g) ** r, 1)
    for q in qvec:
        rhs /= dfact(2 * q + 3)
    return lhs <= rhs


def string_identity_holds(g: int, indices: Sequence[int]) -> bool:
    """Exact check of the string equation for <tau_0 prod tau_{k_i}>_g."""
    idx = _sort_desc(indices)
    lhs = intersection_number(g, idx + (0,))
    rhs = _R0
    for j, v in enumerate(idx):
        if v >= 1:
            rhs += intersection_number(g, idx[:j] + (v - 1,) + idx[j + 1:])
    return lhs == rhs


def dilaton_identity_holds(g: int, indices: Sequence[int]) -> bool:
    """Exact check of the dilaton equation for <tau_1 prod tau_{k_i}>_g."""
    idx = _sort_desc(indices)
    lhs = intersection_number(g, idx + (1,))
    rhs = (2 * g - 2 + len(idx)) * intersection_number(g, idx)
    return lhs == rhs
