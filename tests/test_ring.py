"""Exact arithmetic layer: rationals, q pi^(2j) values, mu-series and
sparse tight polynomials."""

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from tightwp import boltzmann, moments
from tightwp.errors import DomainError, ShapeError
from tightwp.ring import (MuSeries, PiPoly, Rational, TightPoly,
                          eval_ell_groups, mpf_list, pi_squared,
                          rat_from_str, rat_to_str, to_mpf)


def test_rational_is_canonical():
    q = Rational(6, -4)
    assert q.numerator == -3 and q.denominator == 2
    assert rat_to_str(q) == "-3/2"
    assert rat_from_str("-3/2") == q
    assert rat_to_str(Rational(5)) == "5/1"


def test_to_mpf_precision():
    x = to_mpf(Rational(1, 3), 113)
    with mp.workprec(113):
        assert abs(x - mpmath.mpf(1) / 3) < mpmath.mpf(2) ** -110


class TestPiPoly:
    def test_construction_drops_zeros(self):
        z = PiPoly(Rational(0), 5)
        assert (z.q, z.j) == (0, 0)
        assert z == PiPoly(0) and z.items() == [] and z.to_obj() == []
        assert repr(z) == "PiPoly(0)"
        assert moments.r_series(3).coeff(0) == PiPoly(0)

    def test_eval_deterministic(self):
        p = PiPoly(1, 1)
        assert p.eval(113) == pi_squared(113)
        assert p.eval(113) == p.eval(113)
        with mp.workprec(113):
            assert PiPoly(Rational(-7, 3), 2).eval(113) == \
                to_mpf(Rational(-7, 3), 113) * pi_squared(113) ** 2
        assert PiPoly(0).eval(113) == 0

    def test_serialization_round_trip(self):
        for p in (PiPoly(Rational(22, 5), 4), PiPoly.term(-1, 0)):
            [[j, s]] = p.to_obj()
            assert p.items() == [(j, rat_from_str(s))]
            assert PiPoly(rat_from_str(s), j) == p
        assert PiPoly(Rational(22, 5), 4).to_obj() == [[4, "22/5"]]

    def test_hash_and_eq_on_value_and_degree(self):
        # equal objects must hash alike, or sets and dicts lose them
        a, b = PiPoly(Rational(2, 4), 3), PiPoly.term(Rational(1, 2), 3)
        assert a == b and hash(a) == hash(b) and b in {a}
        assert a != PiPoly(Rational(1, 2), 2)
        assert a != PiPoly(Rational(1, 3), 3)
        assert PiPoly(0, 4) in {PiPoly(0)}


class TestMuSeries:
    def test_binary_ops_truncate_to_smaller_order(self):
        a = MuSeries([1, 1, 1, 1])
        b = MuSeries([1, 2])
        assert (a + b).order == 1
        assert (a * b).order == 1
        assert (a * b).coeff(1) == PiPoly.term(3, 1)

    def test_equal_series_compare_equal(self):
        # coefficients are kept in lowest terms, so equality is structural
        assert MuSeries([Rational(2, 4)]) == MuSeries([Rational(1, 2)])
        assert MuSeries([Rational(1, 2), Rational(1, 3)]).truncate(0) == \
            MuSeries([Rational(1, 2)])
        half = MuSeries([Rational(1, 2), Rational(1, 6)])
        assert half + half == MuSeries([1, Rational(1, 3)])
        assert half * 6 == MuSeries([3, 1])

    def test_derivative_drops_an_order_and_raises_the_shift(self):
        s = MuSeries([0, Rational(-1, 3), 0, Rational(7, 2)], shift=-1)
        assert s.derivative() == MuSeries([Rational(-1, 3), 0,
                                           Rational(21, 2)])
        assert MuSeries([4, 1]).derivative() == MuSeries([1], shift=1)
        with pytest.raises(DomainError):
            MuSeries([4]).derivative()

    def test_scaling_by_a_power_of_pi2_shifts_the_degree(self):
        s = MuSeries([1, Rational(-1, 3)]) * PiPoly.term(2, 3)
        assert s == MuSeries([2, Rational(-2, 3)], shift=3)
        assert s * PiPoly(0) == MuSeries.zero(1)
        with pytest.raises(DomainError):
            s + MuSeries([1, 1])


class TestSeriesInvertZ:
    def test_order_one_is_mu(self):
        r = moments.r_series(1)
        assert r.coeff(0) == PiPoly(0)
        assert r.coeff(1) == PiPoly(1)

    def test_order_two_adds_pi2_mu2(self):
        r = moments.r_series(2)
        assert r.coeff(2) == PiPoly.term(1, 1)

    def test_defining_identity_to_truncation(self):
        order = 10
        r = moments.r_series(order)
        z = MuSeries.zero(order)
        r_pow = MuSeries([1], order=order)
        for m in range(order):
            r_pow = r_pow * r
            q = Rational((-2) ** m, math.factorial(m) * math.factorial(m + 1))
            z = z + r_pow * PiPoly.term(q, m)
        assert z == MuSeries([0, 1], order=order, shift=-1)

    def test_lower_order_is_a_truncation(self):
        assert moments.r_series(50).truncate(47) == moments.r_series(47)

    def test_order_must_be_positive(self):
        with pytest.raises(DomainError):
            moments.r_series(0)

    def test_m0_composition_hand_values(self):
        # M_0(mu) = 1 - 2 pi^2 mu - pi^4 mu^2 + O(mu^3)
        got = moments.moment_series(0, 2)
        assert got.coeff(0) == PiPoly(1)
        assert got.coeff(1) == PiPoly.term(-2, 1)
        assert got.coeff(2) == PiPoly.term(-1, 2)


def _eval(p, ell_values, m_values, prec=113):
    """(value, abs_sum, cancelled) of p through its kernel groups."""
    coeffs = mpf_list(p.terms.values(), prec)
    return eval_ell_groups(p.subst_m_mpf(m_values, coeffs, prec), ell_values,
                           prec)


def _p11():
    """P_{1,1} = (1/24)(-m1 + ell1/2)."""
    return TightPoly(1, 1, {(0, 1): Rational(-1, 24),
                            (1, 0): Rational(1, 48)})


class TestTightPolyOps:
    def test_dm_examples(self):
        assert _p11().dm(1).terms == {(0, 0): Rational(-1, 24)}
        # P_{0,4} = -m1 + (ell1 + ... + ell4)/2, in a shape with m1, m2
        half = Rational(1, 2)
        p04 = TightPoly(4, 2, {(0, 0, 0, 0, 1, 0): -1,
                               (1, 0, 0, 0, 0, 0): half,
                               (0, 1, 0, 0, 0, 0): half,
                               (0, 0, 1, 0, 0, 0): half,
                               (0, 0, 0, 1, 0, 0): half})
        assert len(p04) == 5
        assert p04.dm(1) == TightPoly(4, 2, {(0,) * 6: -1})
        assert p04.dm(2).is_zero
        assert TightPoly(1, 1, {(0, 2): 1}).dm(1) == \
            TightPoly(1, 1, {(0, 1): 2})

    def test_dm_index_out_of_range(self):
        with pytest.raises(ShapeError):
            _p11().dm(2)

    def test_eval_examples(self):
        one = TightPoly(3, 0, {(0, 0, 0): 1})
        assert _eval(one, [1.0, 2.0, 3.0], [])[0] == 1
        # -m1 + (ell1 + ell2)/2
        p = TightPoly(2, 1, {(0, 0, 1): -1, (1, 0, 0): Rational(1, 2),
                             (0, 1, 0): Rational(1, 2)})
        with mp.workprec(113):
            v, _, _ = _eval(p, [0, 0], [-2 * pi_squared(113)])
            assert abs(v - 2 * pi_squared(113)) < mpmath.mpf(2) ** -100
            assert mpmath.nstr(v, 9) == "19.7392088"
        v, _, _ = _eval(_p11(), [2.0], [0.0])
        assert abs(v - to_mpf(Rational(1, 24), 113)) < mpmath.mpf(2) ** -100

    def test_eval_validates_shape_and_precision(self):
        with pytest.raises(ShapeError):
            _eval(_p11(), [], [0.0])
        with pytest.raises(ShapeError):
            _eval(_p11(), [1.0], [])
        with pytest.raises(DomainError):
            boltzmann.cell_groups(1, 1, 0.0, 52)

    def test_eval_cancellation_flag(self):
        p = TightPoly(0, 1, {(1,): 1, (0,): 1})  # m1 + 1
        _, _, cancelled = _eval(p, [], [-1.0 + 1e-12])
        assert cancelled
        _, _, ok = _eval(p, [], [1.0])
        assert not ok

    def test_serialization_round_trip_canonical_order(self):
        p = _p11()
        assert p.to_obj() == [[[1], [0], "1/48"], [[0], [1], "-1/24"]]
        cols = p.to_columns()
        assert cols == [["-1/24", "1/48"], "00010100", [0, 1]]
        back = TightPoly.from_columns(1, 1, cols)
        assert back == p and list(back.terms) == list(p.terms)

    def test_columns_keep_literal_order_and_share_equal_coefficients(self):
        # canonical order would be (1, 0), (0, 1), (2, 0)
        p = TightPoly(1, 1, {(2, 0): Rational(1, 48), (0, 1): Rational(-1, 24),
                             (1, 0): Rational(1, 48)})
        cols = p.to_columns()
        assert cols == [["1/48", "-1/24"], "020000010100", [0, 1, 0]]
        back = TightPoly.from_columns(1, 1, cols)
        assert back == p and list(back.terms) == [(2, 0), (0, 1), (1, 0)]
        assert back.terms[(2, 0)] is back.terms[(1, 0)]
        const = TightPoly(0, 0, {(): 3})
        assert TightPoly.from_columns(0, 0, const.to_columns()) == const


# -- property-based checks ---------------------------------------------------

_coef = st.integers(-6, 6)


def _tp_strategy(n_ell=2, n_m=2, max_exp=2):
    key = st.tuples(*([st.integers(0, max_exp)] * (n_ell + n_m)))
    return st.dictionaries(key, _coef, max_size=5).map(
        lambda d: TightPoly(n_ell, n_m, {k: Rational(v)
                                         for k, v in d.items()}))


@settings(max_examples=25, deadline=None)
@given(_tp_strategy(n_ell=1, n_m=2),
       st.tuples(st.integers(-5, 5), st.integers(1, 5)),
       st.tuples(st.integers(-5, 5), st.integers(1, 5)),
       st.integers(1, 2))
def test_dm_matches_central_differences(p, qm1, qm2, index):
    m_point = [to_mpf(Rational(*qm1), 113), to_mpf(Rational(*qm2), 113)]
    ell_point = [to_mpf(Rational(1, 2), 113)]
    with mp.workprec(113):
        h = mpmath.mpf(2) ** -30
        m_hi = list(m_point)
        m_lo = list(m_point)
        m_hi[index - 1] += h
        m_lo[index - 1] -= h
        fd = (_eval(p, ell_point, m_hi)[0]
              - _eval(p, ell_point, m_lo)[0]) / (2 * h)
        exact = _eval(p.dm(index), ell_point, m_point)[0]
        assert abs(fd - exact) <= 1e-6 * (1 + abs(exact))
