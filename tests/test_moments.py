"""Series kernel, critical constants, moment solver and exact series."""

import functools
import math

import mpmath
import pytest
from mpmath import mp

from tightwp import moments
from tightwp.errors import DomainError
from tightwp import tightpoly
from tightwp.ring import MuSeries, PiPoly, Rational, TightPoly, pi_squared

PREC = 113


class TestBessel:
    """The series f_k(r) against mpmath's Bessel functions:
    J_k(x) = (-sqrt(r) / (sqrt(2) pi))^k f_k(r) at r = x^2 / (8 pi^2)."""

    @pytest.mark.parametrize("k", [0, 1, 2, 5])
    @pytest.mark.parametrize("x", ["0", "0.5", "2.40482555", "7.3", "10"])
    def test_matches_independent_library_evaluation(self, k, x):
        with mp.workprec(PREC):
            x = mpmath.mpf(x)
            r = x ** 2 / (8 * mp.pi ** 2)
            mine = (-mpmath.sqrt(r) / (mpmath.sqrt(2) * mp.pi)) ** k \
                * moments._f(k, r, PREC)
            ref = mpmath.besselj(k, x)
            assert abs(mine - ref) <= mpmath.mpf(2) ** -100 * (1 + abs(ref))

    def test_j0_at_zero(self):
        assert moments._f(0, mpmath.mpf(0), PREC) == 1
        assert moments.z_value(0, 0, PREC) == 0

    def test_domain(self):
        for r in (-0.5, 1.5, math.nan):
            with pytest.raises(DomainError):
                moments.z_value(r, 0, PREC)
        with pytest.raises(DomainError):
            moments.moment(-1, 0.01, PREC)

    @pytest.mark.parametrize("k", [0, 1, 2, 5, 20, 21])
    @pytest.mark.parametrize("frac", ["1e-4", "0.1", "0.5", "0.9", "0.99999",
                                      "0.9999999999"])
    def test_moment_matches_library_bessel(self, frac, k):
        # M_k = (-sqrt(2) pi / sqrt(R))^k J_k(2 pi sqrt(2 R)) at R = R(mu)
        with mp.workprec(PREC + 16):
            mu = moments.mu_critical(PREC) * mpmath.mpf(frac)
        r = moments.solve_r(mu, PREC)
        got = moments.moment(k, mu, PREC)
        with mp.workprec(PREC + 64):
            ref = (-mpmath.sqrt(2) * mp.pi / mpmath.sqrt(r)) ** k \
                * mpmath.besselj(k, 2 * mp.pi * mpmath.sqrt(2 * r))
            assert abs(got / ref - 1) <= mpmath.mpf(2) ** -105


def old_z_value(r, mu, prec):
    """Z as z_value summed it before it read _z_and_slope: r f_1(r)/c - mu
    at prec + 16 bits, rounded to prec."""
    with mp.workprec(prec + 16):
        r = mpmath.mpf(r)
        val = r * moments._f(1, r, prec) / (-2 * mp.pi ** 2) - mpmath.mpf(mu)
    with mp.workprec(prec):
        return +val


class TestZValue:
    """z_value is the Z of a solve_r Newton step, and mu_c keeps the bits
    of the f_1 route."""

    @pytest.mark.parametrize("prec", [53, 113, 200])
    def test_is_the_solver_value(self, prec):
        rmax = moments.r_max(prec)
        with mp.workprec(prec + 16):
            rs = [0, 0.25, 1, rmax / 3, rmax * 0.999, rmax]
            mus = [0, 0.01, moments.mu_critical(prec) / 2]
        for r in rs:
            for mu in mus:
                got = moments.z_value(r, mu, prec)
                assert got._mpf_ == moments._z_and_slope(r, mu, prec)[0]._mpf_

    @pytest.mark.parametrize("prec, r, mu", [
        (53, 0.6249107736588403, 0.0008330686699409907),
        (113, 0.6977261979318513, 0.021700591957749357)])
    def test_moved_points_take_the_solver_value(self, prec, r, mu):
        # two of the points where the f_1 route rounds Z one ulp apart
        got = moments.z_value(r, mu, prec)
        assert got._mpf_ == moments._z_and_slope(r, mu, prec)[0]._mpf_
        assert got._mpf_ != old_z_value(r, mu, prec)._mpf_

    @pytest.mark.parametrize("prec", [53, 80, 113, 160, 200, 300])
    def test_mu_critical_keeps_its_bits(self, prec):
        want = old_z_value(moments.r_max(prec), 0, prec)
        assert moments.mu_critical(prec)._mpf_ == want._mpf_
        assert moments.mu_critical.__wrapped__(prec)._mpf_ == want._mpf_


class TestConstants:
    def test_j0_value(self):
        j0 = moments.find_j0(PREC)
        assert mpmath.nstr(j0, 16) == "2.404825557695773"
        assert 2.40 < j0 < 2.41
        with mp.workprec(PREC):
            assert abs(mpmath.besselj(0, j0)) < 1e-12
            assert abs(j0 - mpmath.besseljzero(0, 1)) < mpmath.mpf(2) ** -105

    def test_j1_at_j0(self):
        # J_1(j_0) = 4 pi^2 mu_c / j_0, with mu_c = F(r_max) from the series
        j0 = moments.find_j0(PREC)
        with mp.workprec(PREC):
            v = 4 * mp.pi ** 2 * moments.mu_critical(PREC) / j0
            assert abs(v / mpmath.besselj(1, j0) - 1) < mpmath.mpf(2) ** -105
        assert mpmath.nstr(v, 16) == "0.5191474972894668"

    def test_mu_critical_digits(self):
        muc = moments.mu_critical(PREC)
        assert mpmath.nstr(muc, 10).startswith("0.0316")
        # frozen regression digits from the bisection + series oracle
        assert mpmath.nstr(muc, 16) == "0.03162384020066974"

    def test_alpha_constants(self):
        assert abs(moments.alpha1(PREC) - mpmath.mpf("2.41105")) < 1e-5
        assert abs(moments.alpha2(PREC) - mpmath.mpf("1.27848")) < 1e-5
        assert mpmath.nstr(moments.alpha1(PREC), 12) == "2.41105096865"
        assert mpmath.nstr(moments.alpha2(PREC), 12) == "1.27848325779"


class TestSolveR:
    def test_endpoints(self):
        assert moments.solve_r(0, PREC) == 0
        muc = moments.mu_critical(PREC)
        with mp.workprec(PREC):
            want = moments.find_j0(PREC) ** 2 / (8 * mp.pi ** 2)
            got = moments.solve_r(muc, PREC)
            assert abs(got - want) < mpmath.mpf(2) ** -90

    def test_defining_identity_on_grid(self):
        muc = moments.mu_critical(PREC)
        with mp.workprec(PREC):
            for f in ("0.1", "0.35", "0.6", "0.85", "0.99"):
                mu = muc * mpmath.mpf(f)
                r = moments.solve_r(mu, PREC)
                assert abs(moments.z_value(r, mu, PREC)) < mpmath.mpf(2) ** -90

    def test_monotone_in_mu(self):
        muc = moments.mu_critical(PREC)
        vals = [moments.solve_r(muc * f / 10, PREC) for f in range(10)]
        assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))

    def test_domain(self):
        with pytest.raises(DomainError):
            moments.solve_r(-0.01, PREC)
        with pytest.raises(DomainError):
            moments.solve_r(0.04, PREC)
        with pytest.raises(DomainError):
            moments.solve_r(math.nan, PREC)

    def test_dz_dr_is_bessel_j0(self):
        with mp.workprec(PREC):
            h = mpmath.mpf(2) ** -40
            for r in ("0.01", "0.03", "0.06"):
                r = mpmath.mpf(r)
                fd = (moments.z_value(r + h, 0, PREC)
                      - moments.z_value(r - h, 0, PREC)) / (2 * h)
                ref = mpmath.besselj(0, 2 * mp.pi * mpmath.sqrt(2 * r))
                assert abs(fd - ref) < 1e-6 * (1 + abs(ref))


    def test_matches_bisection_reference(self):
        # Z(r_max, mu_c) = 0 exactly, but with mu_c rounded the equation has
        # a root pair r_max -+ O(2^(-prec/2)) that bisection may pick from;
        # so at mu = mu_c the reference is r_max itself
        def bisection(mu, prec):
            with mp.workprec(prec + 16):
                lo, hi = mpmath.mpf(0), moments.r_max(prec)
                for _ in range(prec + 24):
                    mid = (lo + hi) / 2
                    if moments.z_value(mid, mu, prec) < 0:
                        lo = mid
                    else:
                        hi = mid
                return (lo + hi) / 2

        for prec in (53, 113, 176):
            muc = moments.mu_critical(prec)
            with mp.workprec(prec + 16):
                assert moments.solve_r(muc, prec) == moments.r_max(prec)
                for gap in ("1e-6", "1e-3", "0.1", "0.5", "0.9", "0.999"):
                    mu = muc * (1 - mpmath.mpf(gap))
                    got = moments.solve_r(mu, prec)
                    want = bisection(mu, prec)
                    assert abs(got / want - 1) <= mpmath.mpf(2) ** (8 - prec)


class TestNewtonRoot:
    @staticmethod
    def _recorded(fdf):
        seen = []

        def wrapped(x):
            seen.append(x)
            return fdf(x)
        return wrapped, seen

    def test_convex_from_the_right_float(self):
        fdf, seen = self._recorded(lambda x: (x * x - 2, 2 * x))
        root = moments._newton_root(fdf, 0.0, 2.0, 2.0, 2.0 ** -50)
        assert abs(root - math.sqrt(2)) <= math.ulp(math.sqrt(2))
        assert all(b < a for a, b in zip(seen, seen[1:]))  # monotone
        assert len(seen) <= 7

    def test_concave_from_the_left_mpf(self):
        with mp.workprec(200):
            def fdf(x):
                return 0.5 - mpmath.exp(-x), mpmath.exp(-x)

            fdf, seen = self._recorded(fdf)
            root = moments._newton_root(fdf, mpmath.mpf(0), mpmath.mpf(3),
                                        mpmath.mpf(0), mpmath.mpf(2) ** -190)
            assert abs(root - mpmath.log(2)) <= mpmath.mpf(2) ** -190
            assert all(b > a for a, b in zip(seen, seen[1:]))
            assert len(seen) <= 10

    def test_falls_back_to_bisection(self):
        # Newton from x = 6 on atan(x - 1) jumps far below -10, outside the
        # bracket, so the next point is the bisection midpoint
        fdf, seen = self._recorded(
            lambda x: (math.atan(x - 1), 1 / (1 + (x - 1) ** 2)))
        root = moments._newton_root(fdf, -10.0, 10.0, 6.0, 2.0 ** -50)
        assert seen[1] == (-10.0 + 6.0) / 2
        assert abs(root - 1) <= 2 * math.ulp(1.0)
        # f' = 0 at the start: bisect as well
        fdf, seen = self._recorded(lambda x: (x ** 3 - 1, 3 * x * x))
        root = moments._newton_root(fdf, -2.0, 3.0, 0.0, 2.0 ** -50)
        assert seen[1] == 1.5
        assert abs(root - 1) <= 2 * math.ulp(1.0)


class TestMoments:
    def test_mu_zero_limits(self):
        with mp.workprec(PREC):
            p2 = pi_squared(PREC)
            for k in range(6):
                want = (-2 * p2) ** k / mpmath.factorial(k)
                got = moments.moment(k, 0, PREC)
                assert abs(got - want) <= mpmath.mpf(2) ** -100 * abs(want)

    def test_m0_vanishes_at_critical(self):
        muc = moments.mu_critical(PREC)
        assert abs(moments.moment(0, muc, PREC)) < 1e-25

    def test_m1_at_critical(self):
        muc = moments.mu_critical(PREC)
        with mp.workprec(PREC):
            j0 = moments.find_j0(PREC)
            want = -4 * mp.pi ** 2 * mpmath.besselj(1, j0) / j0
            got = moments.moment(1, muc, PREC)
            assert abs(got - want) < mpmath.mpf(2) ** -80 * abs(want)

    def test_sign_pattern(self):
        muc = moments.mu_critical(PREC)
        with mp.workprec(PREC):
            for f in ("0", "0.3", "0.7", "0.9999"):
                mu = muc * mpmath.mpf(f)
                for k in range(1, 9):
                    v = moments.moment(k, mu, PREC)
                    assert (v < 0) == (k % 2 == 1)

    def test_m0_square_root_vanishing_trend(self):
        muc = moments.mu_critical(PREC)
        with mp.workprec(PREC):
            j0 = moments.find_j0(PREC)
            scale = 8 * mp.pi ** 2 * mpmath.besselj(1, j0) / j0
            gaps = []
            for e in (4, 6, 8, 10):
                gap = mpmath.mpf(10) ** -e
                ratio = moments.moment(0, muc - gap, PREC) \
                    / mpmath.sqrt(scale * gap)
                gaps.append(abs(ratio - 1))
            assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
            assert gaps[-1] < 1e-4

    def test_frame(self):
        frame = moments.make_frame(0.01, 4, PREC)
        assert frame.d_max == 4
        assert len(frame.m_ratios()) == 4
        assert abs(moments.z_value(frame.r_value, frame.mu, PREC)) < 1e-25
        with pytest.raises(DomainError):
            moments.make_frame(0.032, 2, PREC)  # above mu_c
        with pytest.raises(DomainError):
            moments.make_frame(math.nan, 2, PREC)

    def test_m_ratios_at_frame_precision(self):
        prec = 256
        frame = moments.make_frame(0.01, 4, prec)
        with mp.workprec(prec):
            want = tuple(mk / frame.moments[0] for mk in frame.moments[1:])
        with mp.workprec(53):
            got = frame.m_ratios()
        assert got == want

    def test_frame_keeps_every_bit_of_mu(self):
        with mp.workprec(PREC):
            mu = moments.mu_critical(PREC) / 3  # not a 53-bit float
        frame = moments.make_frame(mu, 2, PREC)
        assert frame.mu == mu
        assert abs(moments.z_value(frame.r_value, frame.mu, PREC)) < 1e-30

    def test_frame_moments_match_moment(self):
        frame = moments.make_frame(0.01, 3, PREC)
        assert frame.moments == tuple(moments.moment(k, 0.01, PREC)
                                      for k in range(4))

    def test_cached_frame_keys_on_exact_mu(self):
        prec = 256
        with mp.workprec(prec + 16):
            mu = mpmath.mpf(1) / 100
            near = mu + mpmath.mpf("1e-45")
        a = moments.cached_frame(mu, 1, prec)
        b = moments.cached_frame(near, 1, prec)
        assert a is not b
        assert (a.mu, b.mu) == (mu, near)
        assert moments.cached_frame(mu, 1, prec) is a

    def test_cached_frame_solves_once_per_mu_and_prec(self, monkeypatch):
        calls = []
        solve_r = moments.solve_r

        def counted(mu, prec):
            calls.append((mu, prec))
            return solve_r(mu, prec)

        monkeypatch.setattr(moments, "solve_r", counted)
        prec = 97
        with mp.workprec(prec + 16):
            mu = moments.mu_critical(prec) * mpmath.mpf("0.123")
        frames = {d: moments.cached_frame(mu, d, prec) for d in (3, 1, 6)}
        assert len(calls) == 1
        for d, frame in frames.items():
            assert frame.d_max == d
            assert moments.cached_frame(mu, d, prec) is frame
            assert frame.moments == moments.make_frame(mu, d, prec).moments
        calls.clear()
        moments.cached_frame(mu, 2, 113)  # another precision, another key
        assert len(calls) == 1


class TestMomentSeries:
    def test_m0_coefficients(self):
        s = moments.moment_series(0, 3)
        assert s.coeff(0) == PiPoly(1)
        assert s.coeff(1) == PiPoly.term(-2, 1)
        assert s.coeff(2) == PiPoly.term(-1, 2)
        assert s.coeff(3) == PiPoly.term(Rational(-14, 9), 3)

    def test_constant_terms(self):
        for k in range(6):
            s = moments.moment_series(k, 2)
            assert s.coeff(0) == PiPoly.term(
                Rational((-2) ** k, math.factorial(k)), k)

    def test_series_matches_numeric(self):
        muc = moments.mu_critical(PREC)
        with mp.workprec(PREC):
            for k in range(5):
                s = moments.moment_series(k, 20)
                for f in ("0.05", "0.15", "0.25"):
                    mu = muc * mpmath.mpf(f)
                    a = s.eval(mu, PREC)
                    b = moments.moment(k, mu, PREC)
                    assert abs(a - b) <= 1e-8 * (1 + abs(b))

    def test_observed_geometric_error_decay(self):
        muc = moments.mu_critical(PREC)
        with mp.workprec(PREC):
            mu = muc / 4
            ref = moments.moment(0, mu, PREC)
            errs = [abs(moments.moment_series(0, order).eval(mu, PREC) - ref)
                    for order in (4, 8, 12, 16)]
            assert all(e2 < e1 / 4 for e1, e2 in zip(errs, errs[1:]))


# -- reference construction ---------------------------------------------------
# The O(p^3) construction the recurrences replaced, kept as an oracle: R by
# Lagrange inversion of mu = sum (-2 pi^2)^m r^(m+1) / (m! (m+1)!), M_k by
# composing sum (-2 pi^2)^(m+k) r^m / (m! (m+k)!) with the powers of R, and
# T_{g,n}(0, mu) through the reciprocal of M_0.  pi^2 is scaled out of the
# rational lists and put back by the series shift.


def _rationals(s):
    """The rational parts of a graded series's coefficients."""
    return [c.q for c in s.coeffs()]


def _reciprocal(cs):
    """1 / sum cs[j] x^j to the same length, cs[0] != 0."""
    w = [1 / cs[0]]
    for s in range(1, len(cs)):
        w.append(-sum((cs[t] * w[s - t] for t in range(1, s + 1)),
                      Rational(0)) / cs[0])
    return w


@functools.cache
def _reference(order: int, k_max: int):
    """(R, [M_0, ..., M_k_max]) of the given order, by Lagrange inversion
    and composition."""
    # [mu^j] R = (1/j) [r^(j-1)] h^j with h = r / F(r)
    h = MuSeries(_reciprocal([Rational((-2) ** m, math.factorial(m)
                                        * math.factorial(m + 1))
                              for m in range(order)]))
    rho, h_pow = [Rational(0)], h
    for j in range(1, order + 1):
        rho.append(_rationals(h_pow)[j - 1] / j)
        h_pow = h_pow * h
    r = MuSeries(rho, shift=-1)
    pows = [MuSeries([1], order=order)]
    for _ in range(order):
        pows.append(pows[-1] * r)
    m_k = []
    for k in range(k_max + 1):
        out = MuSeries.zero(order)
        for m in range(order + 1):
            q = Rational((-2) ** (m + k),
                         math.factorial(m) * math.factorial(m + k))
            out = out + pows[m] * PiPoly.term(q, m + k)
        m_k.append(out)
    return r, m_k


def _reference_t_volume(g, n, order):
    cell = tightpoly.p_gn(g, n)
    _r, m_k = _reference(50, cell.d)
    m_k = [m.truncate(order) for m in m_k]
    m0inv = MuSeries(_reciprocal(_rationals(m_k[0])))
    ratios = [m * m0inv for m in m_k[1:]]
    zero = (0,) * n
    part = cell.poly.ell_slice(zero)
    got = part.subst_m(ratios, [MuSeries([q], order=order)
                                for q in part.terms.values()])
    return got[zero] * m0inv ** (2 * g - 2 + n)


class TestAgainstReferenceConstruction:
    def test_r_and_moments_at_every_order(self):
        ref_r, ref_m = _reference(60, 6)
        for order in range(1, 61):
            assert moments.r_series(order) == ref_r.truncate(order)
            for k, ref in enumerate(ref_m):
                assert moments.moment_series(k, order) == \
                    ref.truncate(order)

    @pytest.mark.parametrize("g, n, order",
                             [(2, 0, 50), (3, 0, 35), (4, 0, 30), (2, 2, 20)])
    def test_t_volume_series(self, g, n, order):
        assert moments.t_volume_series(g, n, order) == \
            _reference_t_volume(g, n, order)


class TestVolumeExtraction:
    def test_acceptance_values(self):
        vols = moments.volume_extract(0, 3, 2)
        assert vols[0] == PiPoly(1)
        assert vols[1] == PiPoly.term(2, 1)
        assert vols[2] == PiPoly.term(10, 2)
        v11 = moments.volume_extract(1, 1, 1)
        assert v11[0] == PiPoly.term(Rational(1, 12), 1)
        assert v11[1] == PiPoly.term(Rational(1, 4), 2)
        # V_{2,0} = 43 pi^6 / 2160 (classical table value)
        assert moments.volume_extract(2, 0, 0)[0] == \
            PiPoly.term(Rational(43, 2160), 3)

    def test_cross_route_consistency(self):
        """V_{0,n}(0) extracted through (0,3) and (0,4) must agree, and
        likewise through (1,1) and (1,2) and through (2,0), (2,1) and
        (2,2): independent recursion chains."""
        via03 = moments.volume_extract(0, 3, 4)
        via04 = moments.volume_extract(0, 4, 3)
        for p in range(4):
            assert via03[p + 1] == via04[p]
        via11 = moments.volume_extract(1, 1, 3)
        via12 = moments.volume_extract(1, 2, 2)
        for p in range(3):
            assert via11[p + 1] == via12[p]
        via20 = moments.volume_extract(2, 0, 3)
        via21 = moments.volume_extract(2, 1, 2)
        via22 = moments.volume_extract(2, 2, 1)
        for p in range(2):
            assert via20[p + 2] == via21[p + 1] == via22[p]
        assert via20[1] == via21[0]

    def test_known_v06(self):
        # V_{0,6}(0) = 244 pi^6 / 3 (classical table value)
        v = moments.volume_extract(0, 3, 3)[3]
        assert v == PiPoly.term(Rational(244, 3), 3)

    def test_genus_two_published_closed_form(self):
        """T_{2,1}(L, 0) must equal the classical one-boundary genus-2
        volume (4p+x)(12p+x)(6960p^2+384px+5x^2)/2211840 with p = pi^2,
        x = L^2 -- an end-to-end oracle for the genus-2 chain."""
        from tightwp import tightpoly

        assert moments.volume_extract(2, 1, 0)[0] == \
            PiPoly.term(Rational(29, 192), 4)
        cell = tightpoly.p_gn(2, 1)
        m_vals = [MuSeries([Rational((-2) ** k, math.factorial(k))], shift=k)
                  for k in range(1, cell.d + 1)]
        den = Rational(2211840)
        expect = {
            (0,): PiPoly.term(Rational(48 * 6960) / den, 4),
            (1,): PiPoly.term(Rational(48 * 384 + 16 * 6960) / den, 3),
            (2,): PiPoly.term(Rational(48 * 5 + 16 * 384 + 6960) / den, 2),
            (3,): PiPoly.term(Rational(16 * 5 + 384) / den, 1),
            (4,): PiPoly(Rational(5) / den),
        }
        got = cell.poly.subst_m(
            m_vals, [MuSeries([q]) for q in cell.poly.terms.values()])
        assert {k: v.coeff(0) for k, v in got.items()} == expect

    def test_generating_function_positive_coefficients(self):
        s = moments.t_volume_series(2, 0, 40)
        for j in range(41):
            c = s.coeff(j)
            assert c.q > 0

    def test_lower_order_is_exact_prefix_in_either_order(self):
        from tightwp import tightpoly

        for orders in ((47, 48, 50), (50, 47)):
            ctx = tightpoly.PolyCache()
            got = {p: moments.volume_extract(2, 0, p, cache=ctx)
                   for p in orders}
            assert all(len(got[p]) == p + 1 for p in orders)
            assert got[47] == got[50][:48]
        v0 = got[50][0]
        got[50][0] = None  # a caller's list is its own
        assert moments.volume_extract(2, 0, 50, cache=ctx)[0] == v0

    def test_replaced_cell_rebuilds_volumes(self):
        from tightwp import tightpoly

        key = (1, 1)
        old = tightpoly.p_gn(*key)
        before = moments.volume_extract(1, 1, 3)
        doubled = {k: 2 * q for k, q in old.poly.terms.items()}
        ctx = tightpoly.PolyCache()
        ctx.cells[key] = tightpoly.PolyCell(1, 1, TightPoly(1, old.d, doubled))
        assert moments.volume_extract(1, 1, 3, cache=ctx) == \
            [PiPoly(2 * v.q, v.j) for v in before]
        assert moments.volume_extract(1, 1, 3) == before

    def test_work_over_the_bound_is_refused_before_any_build(
            self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built past the work bound")

        # the ell = 0 slice of P_{3,2} has p(8) = 22 terms
        assert moments.series_work(3, 2, 10) == 22 * 10 ** 3
        assert moments.series_work(2, 0, 700) == \
            tightpoly.term_count(2, 0) * 700 ** 3
        # the first pmax over the bound, 209
        pmax = 1
        while moments.series_work(3, 2, pmax) <= moments.SERIES_WORK_MAX:
            pmax += 1
        assert pmax == 209
        monkeypatch.setattr(tightpoly, "p_gn", refuse)
        monkeypatch.setattr(moments, "t_volume_series", refuse)
        with pytest.raises(DomainError, match="over the bound"):
            moments.volume_extract(3, 2, pmax)
        with pytest.raises(DomainError, match="over the bound"):
            moments.volume_extract(2, 0, 700)

    def test_insufficient_order_rejected(self):
        with pytest.raises(DomainError):
            moments.volume_extract(0, 3, -1)
