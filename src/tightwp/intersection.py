"""psi-class intersection numbers via the Virasoro/DVV recursion.

``intersection_number`` returns the exact rational
<tau_{d_1} ... tau_{d_n}>_g.  The recursion itself runs on Python ints:
it stores the scaled correlator

    X(g; d) = <tau_d>_g * prod (2 d_i + 1)!! * 2^c(g),
    c(0) = 0,  c(g) = 4g - 1 for g >= 1,

memoized on a canonical key, and the public functions divide by the
scale once per key returned.  In the normalized form of Dijkgraaf,
Verlinde and Verlinde (1991), N = <tau_d> prod (2 d_i + 1)!!, the
reductions read

    string    N(0, S)   = sum_j (2 d_j + 1) N(d_j - 1, S - j)
    dilaton   N(1, S)   = 3 (2g - 2 + n) N(S)
    Virasoro  N(k+1, S) = sum_j (2 d_j + 1) N(d_j + k, S - j)
                + 1/2 sum_{r+s=k-1} [N_{g-1}(r, s, S)
                                     + sum N_{g1}(r, I) N_{g2}(s, J)]

with base cases X(0; 0,0,0) = X(1; 1) = 1, where S - j is S without its
j-th entry; the splitting sum runs over g1 + g2 = g and sub-multisets
I + J = S with stable factors only.  The reduction order
is: base cases, string equation (removes a tau_0), dilaton equation
(removes a tau_1 when nothing larger is left), then the Virasoro step on
the largest index.

X is always an integer, because the halved sum is even.  Each splitting
pair (r, I, g1), (s, J, g2) other than the diagonal one (r = s, I = J,
g1 = g2) comes twice.  A diagonal pair with g1 = g2 >= 1 carries the
factor 2^(c(g) - 2 c(g/2)) = 2, the N_{g-1} term carries 2^3 or 2^4, and
genus 0 is integral outright: X(0; d) = (n-3)! / prod d_i! * prod
(2 d_i + 1)!!.  The worker checks the halving anyway and raises
ArithmeticError on a remainder.

The worker walks the recursion with an explicit stack, so a key of any
depth needs no interpreter recursion.  The splitting sum is collapsed
from subsets to sub-multisets with binomial weights, which turns
<tau_2^m>-type keys from exponential to polynomial work; each
sub-multiset is enumerated once per key and the dimension constraint
fixes r for each g1.  The memo supports concurrent readers; writes are
single dict inserts (atomic under the GIL) and recomputing a key is
idempotent, so no locking is needed.

``save_tau``/``load_tau`` persist the memo as a tau segment: rows
[g, indices, "p/q"] holding the true correlator.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import mpmath
from mpmath import mp

from tightwp import cache as twpcache
from tightwp.errors import CacheError, DomainError, UnstableKeyError
from tightwp.ring import (DEFAULT_PREC, Rational, rat_from_str, rat_to_str,
                          to_mpf)

_R0 = Rational(0)

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


_memo: dict = {}    # (g, d) -> X(g; d), for every key the recursion reached
_values: dict = {}  # (g, d) -> Rational, for every key returned so far

_BASE = {(0, (0, 0, 0)): 1, (1, (1,)): 1}


def cache_size() -> int:
    return len(_memo)


def clear_cache():
    _memo.clear()
    _values.clear()


def _scale(g: int, d: Sequence[int]) -> int:
    """2^c(g) prod (2 d_i + 1)!!, the factor X(g; d) carries."""
    out = 1 << (4 * g - 1) if g else 1
    for v in d:
        out *= dfact(2 * v + 1)
    return out


def _multiplicities(d: Sequence[int]):
    out = {}
    for v in d:
        out[v] = out.get(v, 0) + 1
    return out


def _plan(g: int, d: tuple):
    """X(g; d) as (den, linear, bilinear): the sum of w X(a) over linear
    and of w X(a) X(b) over bilinear, divided by den (1 or 2).

    d is sorted descending, dimension-correct and not a base case.
    """
    if d[-1] == 0:
        # string equation: remove one tau_0
        rest = d[:-1]
        return 1, [(mv * (2 * v + 1),
                    (g, _sort_desc(_remove_one(rest, v) + (v - 1,))))
                   for v, mv in _multiplicities(rest).items() if v], ()
    if d[0] == 1:
        # dilaton equation: all remaining indices are 1
        rest = d[1:]
        return 1, [(3 * (2 * g - 2 + len(rest)), (g, rest))], ()

    # Virasoro step on the largest index; the first sum is doubled, so
    # that the whole right-hand side is over den = 2
    k = d[0] - 1
    rest = d[1:]
    mults = _multiplicities(rest)
    linear = [(2 * mv * (2 * v + 1),
               (g, _sort_desc(_remove_one(rest, v) + (k + v,))))
              for v, mv in mults.items()]
    if g:
        # 2^(c(g) - c(g-1)); (r, s) and (s, r) give the same key
        w = 8 if g == 1 else 16
        for r in range((k + 1) // 2):
            s = k - 1 - r
            linear.append((w if r == s else 2 * w,
                           (g - 1, _sort_desc(rest + (r, s)))))

    # splitting term over sub-multisets I of rest with J = rest - I.  The
    # pair (r, I, g1), (s, J, g2) and its mirror give the same product, so
    # only the smaller of the two is kept, with weight 2 unless it is its
    # own mirror.
    bilinear = []
    n_rest = len(rest)
    values = sorted(mults)
    counts = tuple(mults[v] for v in values)
    for take in itertools.product(*(range(c + 1) for c in counts)):
        comp = tuple(map(operator.sub, counts, take))
        if take > comp:
            continue
        size_i = sum(take)
        sum_i = sum(map(operator.mul, values, take))
        part_i = part_j = None
        # factor 1 dimension pins r: 3 g1 - 3 + |I| + 1 = r + sum(I)
        for g1 in range(g + 1):
            r = 3 * g1 - 2 + size_i - sum_i
            if r < 0:
                continue
            g2 = g - g1
            if r >= k or (take == comp and g1 > g2):
                break
            if 2 * g1 - 1 + size_i <= 0 or 2 * g2 - 1 + n_rest - size_i <= 0:
                continue
            if part_i is None:
                weight = 1
                part_i, part_j = [], []
                for v, c, t in zip(values, counts, take):
                    weight *= math.comb(c, t)
                    part_i += [v] * t
                    part_j += [v] * (c - t)
                part_i, part_j = tuple(part_i), tuple(part_j)
            # 2^(c(g) - c(g1) - c(g2)) is 2 when both genera are positive
            w = 2 * weight if g1 and g2 else weight
            if take != comp or g1 != g2:
                w *= 2
            bilinear.append((w, (g1, _sort_desc(part_i + (r,))),
                             (g2, _sort_desc(part_j + (k - 1 - r,)))))
    return 2, linear, bilinear


def _solve(key: tuple) -> int:
    """X of a dimension-correct key, filling _memo from an explicit stack:
    a key is planned on its first visit and summed once its children
    are in the memo."""
    memo = _memo
    plans = {}
    stack = [key]
    while stack:
        top = stack[-1]
        if top in memo:
            stack.pop()
            continue
        plan = plans.get(top)
        if plan is None:
            if top in _BASE:
                memo[top] = _BASE[top]
                stack.pop()
                continue
            plan = plans[top] = _plan(*top)
            waiting = [a for _, a in plan[1] if a not in memo]
            waiting += [c for _, a, b in plan[2] for c in (a, b)
                        if c not in memo]
            if waiting:
                stack += waiting
                continue
        den, linear, bilinear = plan
        total = 0
        for w, a in linear:
            total += w * memo[a]
        for w, a, b in bilinear:
            total += w * memo[a] * memo[b]
        if den == 2:
            total, odd = divmod(total, 2)
            if odd:
                raise ArithmeticError(
                    f"DVV halving leaves a remainder at g={top[0]} {top[1]}")
        memo[top] = total
        del plans[top]
        stack.pop()
    return memo[key]


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
    or malformed keys.  A key already returned is served from _values
    before any TauKey is built: only validated keys enter it.
    """
    if isinstance(key, TauKey):
        k = (key.genus, key.indices)
    else:
        k = (key, tuple(sorted(indices, reverse=True)))
        val = _values.get(k)
        if val is not None:
            return val
        key = TauKey.make(*k)
        k = (key.genus, key.indices)
    if sum(key.indices) != key.dimension:
        return _R0
    val = _values.get(k)
    if val is None:
        x = _memo.get(k)
        if x is None:
            x = _solve(k)
        val = _values[k] = Rational(x, _scale(*k))
    return val


def save_tau(path) -> int:
    """Write the memo as a tau segment, each value as held in _values
    where it is there; returns the row count."""
    rows = [[g, list(d), rat_to_str(_values.get((g, d))
                                    or Rational(x, _scale(g, d)))]
            for (g, d), x in sorted(_memo.items())]
    twpcache.write_twp(path, "tau", [len(rows)], rows)
    return len(rows)


def load_tau(path) -> int:
    """Merge a tau segment into the memo; returns its count of distinct
    keys (its row count, for a segment ``save_tau`` wrote).

    Raises CacheError, and merges nothing, when a row is malformed,
    unstable or not dimension-correct, when its value times
    2^c(g) prod (2 d_i + 1)!! is not an integer, or when it disagrees
    with a value already in the memo.
    """
    got = twpcache.read_twp(path, "tau")
    if got is None:
        return 0
    _meta, rows = got
    loaded = {}
    for row in rows:
        try:
            g, idx, s = row
            if type(g) is not int or any(type(i) is not int for i in idx):
                raise ValueError("genus and indices must be integers")
            key = TauKey.make(g, idx)
            q = rat_from_str(s)
        except (TypeError, ValueError, ZeroDivisionError,
                DomainError) as exc:
            raise CacheError(f"{path}: bad tau row {row!r} ({exc})") from exc
        k = (key.genus, key.indices)
        if sum(key.indices) != key.dimension:
            raise CacheError(f"{path}: tau row {row!r} is not "
                             f"dimension-correct")
        x = q * _scale(*k)
        if x.denominator != 1 or _memo.get(k, x) != x:
            raise CacheError(f"{path}: tau row {row!r} is not a "
                             f"correlator value")
        loaded[k] = int(x)
    _memo.update(loaded)
    return len(loaded)


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
