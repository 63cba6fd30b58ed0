"""psi-class intersection numbers via the Virasoro/DVV recursion.

``intersection_number`` returns the exact rational
<tau_{d_1} ... tau_{d_n}>_g.  The recursion itself runs on Python ints:
it stores the scaled correlator

    X(g; d) = <tau_d>_g * prod (2 d_i + 1)!! * 2^c(g),
    c(0) = 0,  c(g) = 4g - 1 for g >= 1,

memoized on a canonical key.  ``scaled_value`` reads X itself (solving
on a miss); the closed form of ``tightpoly`` builds each cell
coefficient from it with one division by the whole scale, and so
leaves no entry in _values.  ``intersection_number`` divides X by the
scale once per key it returns, and only it fills _values.

In the normalized form of Dijkgraaf, Verlinde and Verlinde (1991),
N = <tau_d> prod (2 d_i + 1)!!, the reductions read

    string    N(0, S)   = sum_j (2 d_j + 1) N(d_j - 1, S - j)
    dilaton   N(1, S)   = 3 (2g - 2 + n) N(S)
    Virasoro  N(k+1, S) = sum_j (2 d_j + 1) N(d_j + k, S - j)
                + 1/2 sum_{r+s=k-1} [N_{g-1}(r, s, S)
                                     + sum N_{g1}(r, I) N_{g2}(s, J)]

with base cases X(0; 0,0,0) = X(1; 1) = 1, where S - j is S without its
j-th entry; the splitting sum runs over g1 + g2 = g and sub-multisets
I + J = S with stable factors only.  The reduction order is: base
cases, the string equation while the key holds a tau_0, the dilaton
equation while it holds a tau_1, and only then the Virasoro step on the
largest index.  So Virasoro sees only keys whose indices are all >= 2,
which the dimension constraint allows only for g >= 2; there every
first-sum index d_j + k exceeds the rest of the key, and both genera of
a split are positive.

X is always an integer, because the halved sum is even: the first sum
is doubled, the N_{g-1} term carries 2^(c(g) - c(g-1)) = 2^4, each
splitting pair (r, I, g1), (s, J, g2) other than the diagonal one
(r = s, I = J, g1 = g2) comes twice, and a diagonal pair carries the
factor 2^(c(g) - 2 c(g/2)) = 2.  The worker checks the halving anyway
and raises ArithmeticError on a remainder.

The worker walks the recursion with an explicit stack, so a key of any
depth needs no interpreter recursion.  The splitting sum is collapsed
from subsets to sub-multisets with binomial weights, which turns
<tau_2^m>-type keys from exponential to polynomial work; each
sub-multiset is enumerated once per key and the dimension constraint
fixes r for each g1.  Child keys are formed in descending order by
slicing and inserting, without a sort.  The memo supports concurrent
readers; writes are single dict inserts (atomic under the GIL) and
recomputing a key is idempotent, so no locking is needed.

``save_tau``/``load_tau`` persist the memo as a tau segment: rows
[g, indices, "p/q"] holding the true correlator.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from typing import Iterable, Sequence

import mpmath
from mpmath import mp

from tightwp import cache as twpcache
from tightwp.errors import CacheError, DomainError, UnstableKeyError
from tightwp.ring import DEFAULT_PREC, Rational, _parse_coeff, to_mpf

_R0 = Rational(0)

_DFACT = [1, 1]  # index k holds k!!; the convention (-1)!! = 1 is handled below
_ODD = [1]  # index v holds (2 v + 1)!!


def dfact(n: int) -> int:
    """n!! with the convention (-1)!! = 0!! = 1."""
    if n <= 0:
        return 1
    while len(_DFACT) <= n:
        k = len(_DFACT)
        _DFACT.append(_DFACT[k - 2] * k)
    return _DFACT[n]


def _key(g: int, indices: Iterable[int]) -> tuple:
    """(g, indices sorted descending) for a stable key; raises DomainError
    on a negative genus or index and UnstableKeyError when 2g - 2 + n <= 0."""
    idx = tuple(sorted(map(int, indices), reverse=True))
    if g < 0:
        raise DomainError(f"negative genus {g}")
    if idx and idx[-1] < 0:
        raise DomainError(f"negative tau index in {idx}")
    if 2 * g - 2 + len(idx) <= 0:
        raise UnstableKeyError(f"unstable key g={g}, n={len(idx)}")
    return g, idx


_memo: dict = {}    # (g, d) -> X(g; d), for every key the recursion reached
_values: dict = {}  # (g, d) -> Rational, for every key intersection_number
                    # returned so far

_BASE = {(0, (0, 0, 0)): 1, (1, (1,)): 1}


def cache_size() -> int:
    return len(_memo)


def clear_cache():
    _memo.clear()
    _values.clear()


def _scale(g: int, d: tuple) -> int:
    """2^c(g) prod (2 d_i + 1)!!, the factor X(g; d) carries; d descends,
    so filling the table to (2 d_0 + 1)!! covers every entry."""
    while d and len(_ODD) <= d[0]:
        _ODD.append(_ODD[-1] * (2 * len(_ODD) + 1))
    return math.prod(map(_ODD.__getitem__, d),
                     start=1 << (4 * g - 1) if g else 1)


def _runs(t: tuple):
    """(i, v, m) for each run of equal entries of t: the index of its
    last entry, its value and its length."""
    first = 0
    for i, v in enumerate(t):
        if i + 1 == len(t) or t[i + 1] != v:
            yield i, v, i + 1 - first
            first = i + 1


def _plan(g: int, d: tuple):
    """X(g; d) as (den, linear, bilinear): the sum of w X(a) over linear
    and of w X(a) X(b) over bilinear, divided by den (1 or 2).

    d is sorted descending, dimension-correct and not a base case.  The
    string equation removes a tau_0 while there is one, then the dilaton
    equation removes a tau_1 while there is one, so the Virasoro step
    runs only on keys whose indices are all >= 2.  Every child key is
    formed in descending order, by a slice or an insertion, never sorted.
    """
    last = d[-1]
    if last == 0:
        # string equation: remove one tau_0 and lower one other index by
        # 1; lowering the last copy of v keeps the order
        rest = d[:-1]
        return 1, [(m * (2 * v + 1), (g, rest[:i] + (v - 1,) + rest[i + 1:]))
                   for i, v, m in _runs(rest) if v], ()
    if last == 1:
        # dilaton equation: remove one tau_1
        rest = d[:-1]
        return 1, [(3 * (2 * g - 2 + len(rest)), (g, rest))], ()

    # Virasoro step on the largest index, d_0 = k + 1.  With every index
    # >= 2 the dimension constraint leaves g >= 2, and k + v exceeds
    # every index of rest.  The first sum is doubled, so that the whole
    # right-hand side is over den = 2.
    k = d[0] - 1
    rest = d[1:]
    n_rest = len(rest)
    values, counts, linear = [], [], []
    for i, v, m in _runs(rest):
        values.append(v)
        counts.append(m)
        linear.append((2 * m * (2 * v + 1),
                       (g, (k + v,) + rest[:i] + rest[i + 1:])))
    # an index x < k goes in after the entries above it: the first
    # above[x] distinct values exceed x, and cut[j] entries of rest hold
    # the j largest values
    above = []
    j = len(values)
    for x in range(k):
        while j and values[j - 1] <= x:
            j -= 1
        above.append(j)
    cut = (0, *itertools.accumulate(counts))
    # the g - 1 term, 2^(c(g) - c(g-1)) = 16; (r, s) and (s, r) give the
    # same key
    for r in range((k + 1) // 2):
        s = k - 1 - r
        i_s, i_r = cut[above[s]], cut[above[r]]
        linear.append((16 if r == s else 32,
                       (g - 1, rest[:i_s] + (s,) + rest[i_s:i_r] + (r,)
                        + rest[i_r:])))

    # splitting term over sub-multisets I of rest with J = rest - I.  The
    # pair (r, I, g1), (s, J, g2) and its mirror give the same product, so
    # only the smaller of the two is kept, with weight 2 unless it is its
    # own mirror.  The dimension of each factor pins its index,
    # 3 g1 - 2 + |I| = r + sum(I), so r >= 0 from g1 = lo(I) =
    # ceil((sum(I) - |I| + 2) / 3) >= 1 on, and s = k - 1 - r >= 0 up to
    # g1 = g - lo(J).  Both genera are positive, so both factors are
    # stable and carry 2^(c(g) - c(g1) - c(g2)) = 2.
    bilinear = []
    excess = sum(rest) - n_rest + 4
    # product() runs through the takes in lex order, and comp comes as
    # many places from the end as take from the start; so the first half
    # are the takes with take <= comp, and with an odd count the last of
    # them is its own mirror
    n_takes = math.prod(c + 1 for c in counts)
    mirror = n_takes // 2 if n_takes % 2 else -1
    takes = itertools.product(*(range(c + 1) for c in counts))
    for at, take in enumerate(itertools.islice(takes, (n_takes + 1) // 2)):
        size_i = sum(take)
        sum_i = sum(map(operator.mul, values, take))
        lo = (sum_i - size_i + 4) // 3
        hi = g - (excess - sum_i + size_i) // 3
        if at == mirror:
            hi = min(hi, g // 2)
        if hi < lo:
            continue
        comp = tuple(map(operator.sub, counts, take))
        weight = 4
        part_i = part_j = ()
        for v, c, t in zip(values, counts, take):
            weight *= math.comb(c, t)
            part_i += (v,) * t
            part_j += (v,) * (c - t)
        cut_i = (0, *itertools.accumulate(take))
        cut_j = (0, *itertools.accumulate(comp))
        for g1 in range(lo, hi + 1):
            r = 3 * g1 - 2 + size_i - sum_i
            s = k - 1 - r
            i_r, i_s = cut_i[above[r]], cut_j[above[s]]
            bilinear.append((weight // 2 if at == mirror and 2 * g1 == g
                             else weight,
                             (g1, part_i[:i_r] + (r,) + part_i[i_r:]),
                             (g - g1, part_j[:i_s] + (s,) + part_j[i_s:])))
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


def scaled_value(key: tuple) -> int:
    """X(g; d) of a canonical (``_key`` form), dimension-correct key,
    solved into _memo on a miss."""
    x = _memo.get(key)
    return _solve(key) if x is None else x


def intersection_number(g: int, indices: Iterable[int]) -> Rational:
    """Exact <tau_{d_1} ... tau_{d_n}>_g.

    Returns 0 whenever the dimension constraint sum d_i = 3g - 3 + n
    fails; raises on unstable or malformed keys.  A key already returned
    is served from _values before the key is validated: only validated
    keys enter it.
    """
    k = (g, tuple(sorted(indices, reverse=True)))
    val = _values.get(k)
    if val is not None:
        return val
    g, d = k = _key(*k)
    if sum(d) != 3 * g - 3 + len(d):
        return _R0
    val = _values[k] = Rational(scaled_value(k), _scale(*k))
    return val


def save_tau(path) -> int:
    """Write the memo as a tau segment, each value X / scale in lowest
    terms from one gcd; returns the row count."""
    rows = []
    for g, d in sorted(_memo):
        x, scale = _memo[g, d], _scale(g, d)
        c = math.gcd(x, scale)
        rows.append([g, list(d), f"{x // c}/{scale // c}"])
    twpcache.write_twp(path, "tau", [len(rows)], rows)
    return len(rows)


def load_tau(path) -> int:
    """Merge a tau segment into the memo; returns its count of distinct
    keys (its row count, for a segment ``save_tau`` wrote).

    Raises CacheError, and merges nothing, when a row is malformed (its
    value not a nonzero 'num/den', as for cell coefficients), unstable
    or not dimension-correct, when its value times
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
            g, d = k = _key(g, idx)
            q = _parse_coeff(s)
        except (TypeError, ValueError, DomainError) as exc:
            raise CacheError(f"{path}: bad tau row {row!r} ({exc})") from exc
        if sum(d) != 3 * g - 3 + len(d):
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
    idx = tuple(sorted(indices, reverse=True))
    lhs = intersection_number(g, idx + (0,))
    rhs = _R0
    for j, v in enumerate(idx):
        if v >= 1:
            rhs += intersection_number(g, idx[:j] + (v - 1,) + idx[j + 1:])
    return lhs == rhs


def dilaton_identity_holds(g: int, indices: Sequence[int]) -> bool:
    """Exact check of the dilaton equation for <tau_1 prod tau_{k_i}>_g."""
    idx = tuple(sorted(indices, reverse=True))
    lhs = intersection_number(g, idx + (1,))
    rhs = (2 * g - 2 + len(idx)) * intersection_number(g, idx)
    return lhs == rhs


def virasoro_identity_holds(g: int, indices: Sequence[int]) -> bool:
    """Exact check of the Virasoro relation of the module docstring on
    the largest index k + 1 >= 1 of <prod tau_{d_i}>_g, each side summed
    from values intersection_number returns.  The key without its largest
    index must be stable."""
    idx = tuple(sorted(indices, reverse=True))
    if not idx or idx[0] < 1 or 2 * g - 3 + len(idx) <= 0:
        raise DomainError(f"no Virasoro relation for g={g} {idx}")
    k, rest = idx[0] - 1, idx[1:]

    def norm(h, d):
        """N_h(d) = <tau_d>_h prod (2 d_i + 1)!!."""
        return intersection_number(h, d) * math.prod(
            dfact(2 * v + 1) for v in d)

    lhs = norm(g, idx)
    first = sum(((2 * v + 1) * norm(g, rest[:j] + (v + k,) + rest[j + 1:])
                 for j, v in enumerate(rest)), _R0)
    half = _R0
    if g:
        half += sum((norm(g - 1, rest + (r, k - 1 - r)) for r in range(k)),
                    _R0)
    # splitting sum over sub-multisets I of rest, binomial weights; the
    # dimension of the first factor fixes r for each g1
    mults = Counter(rest)
    values = list(mults)
    for take in itertools.product(*(range(mults[v] + 1) for v in values)):
        part_i = tuple(v for v, t in zip(values, take) for _ in range(t))
        part_j = tuple(v for v, t in zip(values, take)
                       for _ in range(mults[v] - t))
        weight = math.prod(math.comb(mults[v], t)
                           for v, t in zip(values, take))
        for g1 in range(g + 1):
            r = 3 * g1 - 2 + len(part_i) - sum(part_i)
            if not 0 <= r < k or 2 * g1 - 1 + len(part_i) <= 0 \
                    or 2 * (g - g1) - 1 + len(part_j) <= 0:
                continue
            half += weight * norm(g1, part_i + (r,)) * norm(
                g - g1, part_j + (k - 1 - r,))
    return lhs == first + half / 2
