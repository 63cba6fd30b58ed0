"""Intersection numbers: published-table oracles, reduction identities,
asymptotic-ratio and comparison-bound diagnostics."""

import itertools
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tightwp import cache as twpcache
from tightwp import intersection, tightpoly, verify
from tightwp.errors import DomainError, UnstableKeyError
from tightwp.intersection import (check_comparison_bound, dfact,
                                  dilaton_identity_holds, intersection_number,
                                  mp_asymptotic_ratio, string_identity_holds,
                                  tau2_correlator, virasoro_identity_holds)
from tightwp.ring import Rational, rat_to_str
from tightwp.tightpoly import partitions

# Values cross-checked against published Witten-Kontsevich tables.
KNOWN = [
    (0, (0, 0, 0), "1/1"),
    (0, (1, 0, 0, 0), "1/1"),
    (0, (2, 0, 0, 0, 0), "1/1"),
    (0, (1, 1, 0, 0, 0), "2/1"),
    (1, (1,), "1/24"),
    (1, (2, 0), "1/24"),
    (1, (1, 1), "1/24"),
    (1, (3, 0, 0), "1/24"),
    (1, (2, 1, 0), "1/12"),
    (1, (1, 1, 1), "1/12"),
    (2, (4,), "1/1152"),
    (2, (5, 0), "1/1152"),
    (2, (4, 1), "1/384"),
    (2, (3, 2), "29/5760"),
    (2, (2, 2, 2), "7/240"),
    (3, (7,), "1/82944"),
    (3, (7, 1), "5/82944"),
    (3, (6, 2), "77/414720"),
    (3, (5, 3), "503/1451520"),
    (3, (4, 4), "607/1451520"),
]


@pytest.mark.parametrize("g,idx,value", KNOWN)
def test_known_values(g, idx, value):
    assert intersection_number(g, idx) == Rational(value)


def _oracle(g, d, memo):
    """<tau_d>_g from the DVV recursion on Fractions, recursive, as the
    package computed it before the scaled-integer worker and in its older
    reduction order: the string equation on a tau_0, the dilaton equation
    only on keys whose indices are all 1, else the Virasoro step on the
    largest index.  d is sorted descending and dimension-correct; memo
    ends up holding every non-base key the recursion reached."""
    key = (g, d)
    if key in memo:
        return memo[key]
    if key == (0, (0, 0, 0)):
        return Fraction(1)
    if key == (1, (1,)):
        return Fraction(1, 24)
    rest = d[:-1] if d[-1] == 0 else d[1:]
    mults = {}
    for v in rest:
        mults[v] = mults.get(v, 0) + 1

    def child(h, t):
        return _oracle(h, tuple(sorted(t, reverse=True)), memo)

    def without(t, v):
        out = list(t)
        out.remove(v)
        return tuple(out)

    if d[-1] == 0:
        # string equation
        val = sum((mv * child(g, without(rest, v) + (v - 1,))
                   for v, mv in mults.items() if v), Fraction(0))
    elif d[0] == 1:
        # dilaton equation
        val = (2 * g - 2 + len(rest)) * child(g, rest)
    else:
        k = d[0] - 1
        s1 = sum((Fraction(mv * dfact(2 * (k + v) + 1), dfact(2 * v - 1))
                  * child(g, without(rest, v) + (k + v,))
                  for v, mv in mults.items()), Fraction(0))
        s23 = Fraction(0)
        values = sorted(mults)
        counts = [mults[v] for v in values]
        for r in range(k):
            s = k - 1 - r
            w_rs = dfact(2 * r + 1) * dfact(2 * s + 1)
            if g >= 1:
                s23 += w_rs * child(g - 1, rest + (r, s))
            for take in itertools.product(*(range(c + 1) for c in counts)):
                size_i = sum(take)
                num = r + sum(v * t for v, t in zip(values, take)) + 2 - size_i
                g1, g2 = num // 3, g - num // 3
                if num % 3 or g1 < 0 or g2 < 0 or 2 * g1 - 1 + size_i <= 0 \
                        or 2 * g2 - 1 + len(rest) - size_i <= 0:
                    continue
                weight = math.prod(math.comb(c, t)
                                   for c, t in zip(counts, take))
                part_i = [v for v, t in zip(values, take) for _ in range(t)]
                part_j = [v for v, c, t in zip(values, counts, take)
                          for _ in range(c - t)]
                s23 += (w_rs * weight * child(g1, tuple(part_i) + (r,))
                        * child(g2, tuple(part_j) + (s,)))
        val = (s1 + s23 / 2) / dfact(2 * k + 3)
    memo[key] = val
    return val


def test_matches_fraction_oracle():
    # every stable, dimension-correct key of dimension <= 12
    memo = {}
    keys = list(verify._tau_keys(12))
    keys += [(g, (2,) * (3 * g - 3)) for g in range(2, 8)]
    for g, idx in keys:
        assert intersection_number(g, idx) == _oracle(g, idx, memo), (g, idx)


def _pg0_keys(g_max):
    """The correlators the closed form of P_{g,0} reads, 2 <= g <= g_max:
    one tau_{k+1} per part k of each partition of 3g - 3."""
    return [(g, tuple(k + 1 for k in part)) for g in range(2, g_max + 1)
            for part in partitions(3 * g - 3)]


def test_old_order_oracle_on_every_key_the_genus_builds_reach(monkeypatch):
    monkeypatch.setattr(intersection, "_memo", {})
    monkeypatch.setattr(intersection, "_values", {})
    ctx = tightpoly.PolyCache()
    for g in range(2, 8):
        tightpoly.p_gn(g, 0, cache=ctx)
    reached = set(intersection._memo)
    assert reached
    old = {}
    for g, idx in _pg0_keys(7):
        _oracle(g, idx, old)
    # stripping every tau_1 first reaches fewer keys
    assert len(reached) < len(old)
    for g, idx in reached | set(old):
        assert intersection_number(g, idx) == _oracle(g, idx, old), (g, idx)


def test_old_order_tau_segment_loads(tmp_path, monkeypatch):
    old = {}
    for g, idx in _pg0_keys(5):
        _oracle(g, idx, old)
    # the old order reaches keys with a tau_1 next to larger indices
    assert any(d[-1] == 1 and d[0] > 1 for _, d in old)
    path = tmp_path / "tau.twp"
    twpcache.write_twp(path, "tau", [len(old)],
                       [[g, list(d), rat_to_str(v)]
                        for (g, d), v in sorted(old.items())])
    monkeypatch.setattr(intersection, "_values", {})
    monkeypatch.setattr(intersection, "_memo", {})
    for g, idx in old:
        intersection_number(g, idx)
    new = dict(intersection._memo)
    # merged into a memo the new order filled: no row conflicts
    assert intersection.load_tau(path) == len(old)
    assert all(intersection._memo[k] == x for k, x in new.items())
    # merged into an empty memo: every row serves its value, and the new
    # order builds the next genus on top of the merged rows
    monkeypatch.setattr(intersection, "_values", {})
    monkeypatch.setattr(intersection, "_memo", {})
    assert intersection.load_tau(path) == len(old)
    assert set(intersection._memo) == set(old)
    for key in set(old) | set(new):
        assert intersection_number(*key) == _oracle(*key, old), key
    for g, idx in _pg0_keys(6):
        assert intersection_number(g, idx) == _oracle(g, idx, old), (g, idx)


def test_values_are_rationals_on_miss_and_hit():
    for _ in range(2):
        assert type(intersection_number(4, (5, 4, 3, 1))) is Rational


def test_deep_key_needs_no_recursion_limit():
    # the string chain of this key is 1497 keys deep
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert intersection_number(0, (1497,) + (0,) * 1499) == 1
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(before)


def test_dfact():
    assert [dfact(n) for n in (-1, 0, 1, 2, 3, 5, 7)] == \
        [1, 1, 1, 2, 3, 15, 105]


def test_dimension_gate():
    assert intersection_number(2, (1,)) == 0
    assert intersection_number(0, (0, 0, 0, 0)) == 0
    assert intersection_number(1, (5, 0)) == 0


def test_unstable_and_malformed_keys():
    with pytest.raises(UnstableKeyError):
        intersection_number(0, (0, 0))
    with pytest.raises(UnstableKeyError):
        intersection_number(1, ())
    with pytest.raises(DomainError):
        intersection_number(1, (-1, 2))
    with pytest.raises(DomainError):
        intersection_number(-1, (0, 0, 0))


def test_order_independence():
    a = intersection_number(3, (5, 3))
    b = intersection_number(3, (3, 5))
    assert a == b
    assert intersection._key(3, (3, 5)) == (3, (5, 3))


class TestMemoFastPath:
    """intersection_number serves a key it returned before from _values,
    under the sorted indices, without validating the key again."""

    def test_permuted_key_and_generator_return_the_hit(self):
        hit = intersection_number(2, (4, 2, 0))
        assert intersection_number(2, (0, 4, 2)) is hit
        assert intersection_number(2, (d for d in (2, 0, 4))) is hit

    def test_warm_hit_builds_no_key(self, monkeypatch):
        hit = intersection_number(3, (5, 3))

        def refuse(*args):
            raise AssertionError("key validated on a warm hit")

        monkeypatch.setattr(intersection, "_key", refuse)
        assert intersection_number(3, (3, 5)) is hit
        assert intersection_number(3, iter((5, 3))) is hit

    def test_bad_keys_raise_with_a_valid_permutation_held(self):
        intersection_number(2, (4, 2, 0))
        intersection_number(0, (0, 0, 0))
        with pytest.raises(DomainError):
            intersection_number(-1, (0, 4, 2))
        with pytest.raises(DomainError):
            intersection_number(2, (4, 3, -1))
        with pytest.raises(UnstableKeyError):
            intersection_number(0, (0, 0))

    def test_dimension_failure_is_never_stored(self):
        assert intersection_number(2, (1, 0)) == 0
        assert intersection_number(2, (0, 1)) == 0
        assert (2, (1, 0)) not in intersection._values
        assert (2, (1, 0)) not in intersection._memo

    def test_clear_cache_empties_what_the_fast_path_reads(self,
                                                          monkeypatch):
        # clear copies, so that later tests keep the warm memo
        for name in ("_memo", "_values"):
            monkeypatch.setattr(intersection, name,
                                dict(getattr(intersection, name)))
        hit = intersection_number(2, (3, 2))
        intersection.clear_cache()
        assert not intersection._values
        solved = []
        solve = intersection._solve

        def counting(key):
            solved.append(key)
            return solve(key)

        monkeypatch.setattr(intersection, "_solve", counting)
        assert intersection_number(2, (2, 3)) == hit
        assert solved == [(2, (3, 2))]


def test_genus_zero_closed_form():
    # <tau_{d_1}..tau_{d_n}>_0 = (n-3)! / prod d_i!
    for d in [(0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0, 0), (2, 1, 0, 0, 0, 0),
              (3, 0, 0, 0, 0, 0), (2, 2, 0, 0, 0, 0, 0)]:
        n = len(d)
        want = Rational(math.factorial(n - 3))
        for x in d:
            want /= math.factorial(x)
        assert intersection_number(0, d) == want


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2),
       st.lists(st.integers(0, 4), min_size=1, max_size=4))
def test_string_and_dilaton_identities(g, idx):
    if 2 * g - 2 + len(idx) <= 0:
        return
    assert string_identity_holds(g, idx)
    assert dilaton_identity_holds(g, idx)


def test_virasoro_identity_sees_one_changed_value(monkeypatch):
    assert virasoro_identity_holds(1, (1, 1))
    assert virasoro_identity_holds(0, (1, 0, 0, 0))
    assert virasoro_identity_holds(3, (1, 3, 5))
    monkeypatch.setattr(intersection, "_values", dict(intersection._values))
    # <tau_5 tau_3>_3 is a first-sum term of <tau_5 tau_3 tau_1>_3
    key = (3, (5, 3))
    intersection._values[key] = intersection_number(*key) + Rational(1, 7)
    assert not virasoro_identity_holds(3, (5, 3, 1))
    with pytest.raises(DomainError):
        virasoro_identity_holds(1, (1,))
    with pytest.raises(DomainError):
        virasoro_identity_holds(0, (0, 0, 0, 0))


def test_tau2_correlator_dimension_check():
    assert tau2_correlator(2) == intersection_number(2, (2, 2, 2))
    with pytest.raises(DomainError):
        tau2_correlator(2, (8,))


class TestAsymptoticRatio:
    def test_finite_positive(self):
        for g, pv in [(2, (2,)), (3, (2,)), (3, (2, 2)), (4, (3,))]:
            r = mp_asymptotic_ratio(g, pv)
            assert r > 0 and r < 10

    def test_trend_toward_one(self):
        gap6 = abs(mp_asymptotic_ratio(6, (2,)) - 1)
        gap9 = abs(mp_asymptotic_ratio(9, (2,)) - 1)
        assert gap9 < gap6

    def test_regression_values(self):
        # frozen from the first run of this implementation (113 bits)
        import mpmath
        assert mpmath.nstr(mp_asymptotic_ratio(6, (2,)), 10) == \
            "0.999877299"
        assert mpmath.nstr(mp_asymptotic_ratio(12, (2,)), 10) == \
            "0.9999899261"

    def test_preconditions(self):
        with pytest.raises(DomainError):
            mp_asymptotic_ratio(1, (2,))
        with pytest.raises(DomainError):
            mp_asymptotic_ratio(3, (1,))
        with pytest.raises(DomainError):
            mp_asymptotic_ratio(2, (2, 2, 2, 2))


class TestComparisonBound:
    def test_spec_instances(self):
        assert check_comparison_bound(2, (1,), (1,))
        # degenerate case: the tau_2 power on the left vanishes
        assert check_comparison_bound(2, (1,), (2,))

    def test_small_sweep(self):
        dim = 6  # g = 3
        pool = [c for k in range(0, 3)
                for c in itertools.combinations_with_replacement(
                    range(1, 5), k)]
        for pv in pool:
            for qv in pool:
                if qv and sum(pv) + sum(qv) <= dim:
                    assert check_comparison_bound(3, pv, qv)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            check_comparison_bound(1, (1,), (1,))
        with pytest.raises(DomainError):
            check_comparison_bound(2, (0,), (1,))
        with pytest.raises(DomainError):
            check_comparison_bound(2, (2,), (2,))
