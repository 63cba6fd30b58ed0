"""Boltzmann cusp statistics: T_{g,n} values, generating-function
evaluations and their classical degenerations."""

import gc
import math
import time
import warnings
import weakref

import mpmath
import pytest
from mpmath import mp

from tightwp import boltzmann, moments, ring, spectrum, tightpoly
from tightwp.boltzmann import LogValue
from tightwp.errors import CancellationWarning, DomainError, TailMassError
from tightwp.ring import TightPoly

PREC = 113


def _value(v: LogValue):
    """The number a LogValue stands for: sign exp(log_magnitude)."""
    with mp.workprec(PREC):
        return v.sign * mpmath.exp(v.log_magnitude) if v.sign else 0


class TestLogValue:
    def test_zero_and_sign_rules(self):
        z = LogValue.from_number(0)
        assert z.sign == 0 and z.log_magnitude == mpmath.mpf("-inf")
        assert _value(z) == 0
        assert LogValue.from_number(-3.0).sign == -1

    def test_round_trip(self):
        for x in ("-1234.5", "0.00025", "7"):
            v = LogValue.from_number(mpmath.mpf(x), PREC)
            assert abs(_value(v) - mpmath.mpf(x)) < 1e-20 * abs(
                mpmath.mpf(x))


class TestTVolume:
    def test_classical_values_at_mu_zero(self):
        with mp.workprec(PREC):
            p2 = mp.pi ** 2
            v = boltzmann.t_volume(1, 1, [2.0], 0.0, PREC)
            assert abs(_value(v) - (4 + 4 * p2) / 48) < 1e-25
            v = boltzmann.t_volume(0, 4, [1.0, 1.0, 0.0, 0.0], 0.0, PREC)
            assert abs(_value(v) - (2 * p2 + 1)) < 1e-25

    def test_three_holed_sphere(self):
        # T_{0,3}(L, 0) = V_{0,3} = 1 for any L; for mu > 0 the cusp
        # generating function gives exactly 1/M_0(mu), L-independent.
        v = boltzmann.t_volume(0, 3, [1.0, 2.0, 3.0], 0.0, PREC)
        assert abs(_value(v) - 1) < 1e-25
        with mp.workprec(PREC):
            for mu in (0.01, 0.03):
                v1 = boltzmann.t_volume(0, 3, [1.0, 2.0, 3.0], mu, PREC)
                v2 = boltzmann.t_volume(0, 3, [0.0, 0.0, 0.0], mu, PREC)
                want = 1 / moments.moment(0, mu, PREC)
                assert abs(_value(v1) / want - 1) < mpmath.mpf(2) ** -90
                assert abs(_value(v2) / want - 1) < mpmath.mpf(2) ** -90

    def test_mu_zero_matches_volume_extraction(self):
        for (g, n) in [(2, 0), (2, 1), (3, 0)]:
            v = _value(boltzmann.t_volume(g, n, [0.0] * n, 0.0, PREC))
            exact = moments.volume_extract(g, n, 0)[0].eval(PREC)
            assert abs(v / exact - 1) < mpmath.mpf(2) ** -90

    def test_warns_exactly_when_cell_groups_flag_cancellation(
            self, monkeypatch):
        # at mu_c/2 the terms of P_{2,0} have mixed signs (m_2 > 0), and
        # their absolute sum is about 2.5 times the value
        mu = moments.mu_critical(PREC) / 2
        with warnings.catch_warnings():
            warnings.simplefilter("error", CancellationWarning)
            boltzmann.t_volume(2, 0, [], mu, PREC)
        monkeypatch.setattr(ring, "CANCEL_THRESHOLD", 1.0)
        with pytest.warns(CancellationWarning):
            boltzmann.t_volume(2, 0, [], mu, PREC)

    def test_validations(self):
        with pytest.raises(DomainError):
            boltzmann.t_volume(1, 0, [], 0.01, PREC)
        with pytest.raises(DomainError):
            boltzmann.t_volume(2, 1, [], 0.01, PREC)
        with pytest.raises(DomainError):
            boltzmann.t_volume(2, 0, [], 0.05, PREC)
        for length in (-1.0, math.nan):
            with pytest.raises(DomainError):
                boltzmann.t_volume(2, 1, [length], 0.01, PREC)

    @pytest.mark.parametrize("length", [math.inf, -math.inf, "inf"])
    def test_non_finite_length_is_refused(self, length):
        with pytest.raises(DomainError, match="finite"):
            boltzmann.t_value(2, 1, [length], 0.01, PREC)
        with pytest.raises(DomainError, match="finite"):
            boltzmann.t_value(2, 2, [1.0, length], 0.01, PREC)


def _per_term_eval(poly, ell_values, m_values, prec):
    """(value, sum of |term|) by the per-term loop: each monomial formed on
    its own from power tables of every variable, then summed."""
    with mp.workprec(prec):
        vals = [mpmath.mpf(v) for v in list(ell_values) + list(m_values)]
        tops = [max((k[i] for k in poly.terms), default=0)
                for i in range(len(vals))]
        pows = [[v ** e for e in range(top + 1)]
                for v, top in zip(vals, tops)]
        total = abs_total = mpmath.mpf(0)
        for key, q in poly.terms.items():
            t = ring.to_mpf(q, prec)
            for i, e in enumerate(key):
                if e:
                    t *= pows[i][e]
            total += t
            abs_total += abs(t)
        return total, abs_total


def _rel(got, want):
    with mp.workprec(PREC):
        return abs(got / want - 1)


class TestCellGroups:
    """t_volume reads P_{g,n} through the per-(g, n, mu, prec) ell-groups;
    they must match the per-term loop and never go stale."""

    def test_agree_with_per_term_loop(self):
        muc = moments.mu_critical(PREC)
        tol = mpmath.mpf(2) ** -100
        with mp.workprec(PREC):
            mus = (muc / 2, muc * (1 - mpmath.mpf(10) ** -4))
        for mu in mus:
            for g, n in [(2, 2), (4, 1), (4, 2)]:
                cell = tightpoly.p_gn(g, n)
                frame = moments.cached_frame(mu, cell.d, PREC)
                with mp.workprec(PREC):
                    m_vals = frame.m_ratios()[:cell.d]
                    m0_pow = frame.moments[0] ** (2 * g - 2 + n)
                for x in (0.0, 0.3, 1.0, 2.5):
                    L = [x * (1 + i / 3) for i in range(n)]
                    with mp.workprec(PREC):
                        ells = [mpmath.mpf(y) ** 2 for y in L]
                    want, want_abs = _per_term_eval(cell.poly, ells, m_vals,
                                                    PREC)
                    value, abs_sum, _ = ring.eval_ell_groups(
                        boltzmann.cell_groups(g, n, mu, PREC)[1], ells, PREC)
                    assert _rel(value, want) < tol
                    assert _rel(abs_sum, want_abs) < tol
                    t = boltzmann.t_volume(g, n, L, mu, PREC)
                    assert t.sign == (1 if want > 0 else -1)
                    with mp.workprec(PREC):
                        want_t = want / m0_pow
                    assert _rel(_value(t), want_t) < tol

    def test_memo_keys_on_exact_mu(self):
        prec = 256
        with mp.workprec(prec + 16):
            mu = moments.mu_critical(prec) / 2
            mu_near = mu + mpmath.mpf(10) ** -45
        held = tightpoly.p_gn(2, 1).groups
        before = {k for k in held if k[1] == prec}
        a = boltzmann.t_volume(2, 1, [1.0], mu, prec)
        b = boltzmann.t_volume(2, 1, [1.0], mu_near, prec)
        assert len({k for k in held if k[1] == prec} - before) == 2
        assert a.log_magnitude != b.log_magnitude
        assert boltzmann.t_volume(2, 1, [1.0], mu, prec) == a

    def test_replaced_cell_is_seen_at_cached_mu(self):
        key = (2, 1)
        old = tightpoly.p_gn(*key)
        mu = moments.mu_critical(PREC) / 3
        before = boltzmann.t_volume(2, 1, [1.0], mu, PREC)
        terms = dict(old.poly.terms)
        changed = min(terms)
        terms[changed] += 1
        new = tightpoly.PolyCell(2, 1, TightPoly(1, old.d, terms))
        frame = moments.cached_frame(mu, old.d, PREC)
        ctx = tightpoly.PolyCache()
        ctx.cells[key] = new
        after = boltzmann.t_volume(2, 1, [1.0], mu, PREC, ctx)
        with mp.workprec(PREC):
            want, _ = _per_term_eval(new.poly, [1],
                                     frame.m_ratios()[:old.d], PREC)
            want /= frame.moments[0] ** 3
        assert after != before
        assert _rel(_value(after), want) < mpmath.mpf(2) ** -100
        assert boltzmann.t_volume(2, 1, [1.0], mu, PREC) == before

    def test_dropped_context_frees_its_cells_and_their_values(self):
        ctx = tightpoly.PolyCache()
        boltzmann.t_volume(2, 1, [1.0], moments.mu_critical(PREC) / 2, PREC,
                           ctx)
        moments.volume_extract(2, 1, 3, cache=ctx)
        cell = tightpoly.p_gn(2, 1, cache=ctx)
        assert cell.groups and cell.volumes
        assert cell is not tightpoly.p_gn(2, 1)
        ref = weakref.ref(cell)
        del cell, ctx
        gc.collect()
        assert ref() is None

    def test_new_mu_lifts_no_coefficient(self, monkeypatch):
        ctx = tightpoly.PolyCache()
        lifted = []
        mpf_list = boltzmann.mpf_list

        def counting(qs, prec):
            lifted.append(prec)
            return mpf_list(qs, prec)

        def refuse(*args):
            raise AssertionError("a coefficient was converted per pass")

        monkeypatch.setattr(boltzmann, "mpf_list", counting)
        monkeypatch.setattr(ring, "to_mpf", refuse)
        muc = moments.mu_critical(PREC)
        boltzmann.cell_groups(2, 2, muc / 2, PREC, ctx)
        assert lifted == [PREC]
        boltzmann.cell_groups(2, 2, muc / 3, PREC, ctx)
        spectrum.expected_nonseparating_count(
            3, muc / 4, spectrum.IntervalSet.make([(0.5, 1.5)]), PREC, ctx)
        # the count leaves its groups on its cut cell P_{2,2}
        assert len(tightpoly.p_gn(2, 2, cache=ctx).groups) == 3
        assert lifted == [PREC, PREC]  # the second is P_{3,0} for T_3
        boltzmann.cell_groups(2, 2, muc / 3, 80, ctx)
        assert lifted == [PREC, PREC, 80]

    def test_lifts_die_with_their_cell(self, monkeypatch):
        ctx = tightpoly.PolyCache()
        held = []
        mpf_list = boltzmann.mpf_list

        class Lifts(list):
            """A list that takes a weak reference."""

        def tracked(qs, prec):
            out = Lifts(mpf_list(qs, prec))
            held.append(weakref.ref(out))
            return out

        monkeypatch.setattr(boltzmann, "mpf_list", tracked)
        boltzmann.t_volume(2, 1, [1.0], moments.mu_critical(PREC) / 2, PREC,
                           ctx)
        assert len(held) == 1
        assert tightpoly.p_gn(2, 1, cache=ctx).lifts[PREC] is held[0]()
        del ctx
        gc.collect()
        assert held[0]() is None

    def test_ten_lengths_substitute_once(self, monkeypatch):
        # one kernel pass per (cell, mu, prec) gives both the signed and
        # the magnitude sums
        ctx = tightpoly.PolyCache()
        calls = []
        kernel = TightPoly.subst_m_mpf

        def counting(self, *args, **kwargs):
            calls.append(self)
            return kernel(self, *args, **kwargs)

        monkeypatch.setattr(TightPoly, "subst_m_mpf", counting)
        mu = moments.mu_critical(PREC) / 2
        for i in range(10):
            boltzmann.t_volume(4, 1, [0.3 * i], mu, PREC, ctx)
        assert len(calls) == 1


class TestFactorialMoments:
    def test_zero_at_mu_zero(self):
        assert boltzmann.factorial_moment(2, 0, 0.0, PREC) == 0

    def test_needs_genus_at_least_two(self):
        with pytest.raises(DomainError):
            boltzmann.factorial_moment(1, 0, 0.01, PREC)

    def test_mean_monotone_in_mu(self):
        muc = moments.mu_critical(PREC)
        vals = [boltzmann.mean_cusps(2, muc * f, PREC)
                for f in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_concentration_identity_and_positivity(self):
        muc = moments.mu_critical(PREC)
        mu = muc / 2
        m1 = boltzmann.factorial_moment(3, 0, mu, PREC)
        m2 = boltzmann.factorial_moment(3, 1, mu, PREC)
        cr = boltzmann.concentration_ratio(3, mu, PREC)
        assert cr >= 0
        with mp.workprec(PREC):
            assert abs(cr - (m2 + m1 - m1 * m1) / (m1 * m1)) < 1e-25


class TestCuspPmf:
    def test_normalization_and_moments(self):
        muc = moments.mu_critical(PREC)
        pmf = boltzmann.cusp_pmf(2, muc / 2, prec=PREC)
        assert abs(sum(pmf.probs) - 1) < 1e-12
        assert 1 - 1e-12 <= pmf.raw_mass <= 1 + 1e-12
        mean = boltzmann.mean_cusps(2, muc / 2, PREC)
        assert abs(pmf.mean() / float(mean) - 1) < 1e-8
        m2 = boltzmann.factorial_moment(2, 1, muc / 2, PREC)
        assert abs(pmf.factorial_moment(2) / float(m2) - 1) < 1e-8

    def test_volumes_built_once_across_mu(self, monkeypatch):
        ctx = tightpoly.PolyCache()
        calls = []
        series = moments.t_volume_series

        def counting(*args, **kwargs):
            calls.append(args)
            return series(*args, **kwargs)

        monkeypatch.setattr(moments, "t_volume_series", counting)
        muc = moments.mu_critical(PREC)
        a = boltzmann.cusp_pmf(2, muc / 2, pmax=50, prec=PREC, cache=ctx)
        b = boltzmann.cusp_pmf(2, muc * 0.45, pmax=50, prec=PREC, cache=ctx)
        assert len(calls) == 1
        assert a.mean() > b.mean()

    def test_tail_failure_instructs_larger_pmax(self):
        muc = moments.mu_critical(PREC)
        with pytest.raises(TailMassError):
            boltzmann.cusp_pmf(2, muc / 2, pmax=8, prec=PREC)

    @pytest.mark.parametrize("g, mu_over_muc, default_pmax", [
        (3, None, 74), (2, 0.6, 55)])
    def test_default_pmax_grows_until_the_tail_certifies(
            self, g, mu_over_muc, default_pmax):
        # at ceil(4 E[N]) + 40 the certified tail is still about 3e-11
        muc = moments.mu_critical(PREC)
        mu = 0.02 if mu_over_muc is None else muc * mu_over_muc
        with pytest.raises(TailMassError, match=f"beyond {default_pmax}"):
            boltzmann.cusp_pmf(g, mu, pmax=default_pmax, prec=PREC)
        pmf = boltzmann.cusp_pmf(g, mu, prec=PREC)
        assert default_pmax < len(pmf) - 1 < default_pmax + 20
        assert pmf.tail_bound <= boltzmann.TAIL_TOL
        assert abs(pmf.raw_mass - 1) < 1e-12
        assert pmf.probs == boltzmann.cusp_pmf(g, mu, len(pmf) - 1,
                                               PREC).probs

    def test_certified_default_keeps_its_pmax(self):
        muc = moments.mu_critical(PREC)
        pmf = boltzmann.cusp_pmf(2, muc / 2, prec=PREC)
        mean = boltzmann.mean_cusps(2, muc / 2, PREC)
        assert len(pmf) - 1 == int(mpmath.ceil(4 * mean)) + 40

    def test_near_critical_default_is_refused_before_extraction(
            self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("volumes extracted past the work bound")

        monkeypatch.setattr(boltzmann, "volume_extract", refuse)
        muc = moments.mu_critical(PREC)
        with mp.workprec(PREC):
            mu = muc * (1 - mpmath.mpf(10) ** -3)
        start = time.perf_counter()
        with pytest.raises(TailMassError, match="work"):
            boltzmann.cusp_pmf(3, mu, prec=PREC)
        assert time.perf_counter() - start < 1.0

    def test_explicit_pmax_over_the_bound_is_refused_before_extraction(
            self, monkeypatch):
        # (2, 700) is 1.03e9 units, five times the bound; extracting it
        # took 141 s
        def refuse(*args, **kwargs):
            raise AssertionError("volumes extracted past the work bound")

        monkeypatch.setattr(boltzmann, "volume_extract", refuse)
        assert moments.series_work(2, 0, 700) == \
            tightpoly.term_count(2, 0) * 700 ** 3 > moments.SERIES_WORK_MAX
        with pytest.raises(TailMassError, match="smaller pmax"):
            boltzmann.cusp_pmf(2, 0.01, pmax=700, prec=PREC)

    def test_domain(self):
        with pytest.raises(DomainError):
            boltzmann.cusp_pmf(2, 0.0, prec=PREC)
        with pytest.raises(DomainError):
            boltzmann.cusp_pmf(1, 0.01, prec=PREC)


class TestSolveMu:
    def test_hits_target_and_monotone(self):
        res = boltzmann.solve_mu_for_target(2, 5.0, prec=PREC)
        assert abs(res.mean / 5.0 - 1) < 1e-8
        res2 = boltzmann.solve_mu_for_target(2, 9.0, prec=PREC)
        assert res2.mu > res.mu

    def test_seed_formula(self):
        muc = moments.mu_critical(PREC)
        res = boltzmann.solve_mu_for_target(4, 1000.0, prec=PREC)
        with mp.workprec(PREC):
            want = muc * (1 - mpmath.mpf(20) / 2000)
            assert abs(res.seed - want) < 1e-25

    def test_bad_target(self):
        with pytest.raises(DomainError):
            boltzmann.solve_mu_for_target(2, 0.0, prec=PREC)


class TestBoundaryRatio:
    def test_zero_lengths(self):
        r, t = boltzmann.boundary_ratio(2, 1, [0.0], 0.01, PREC)
        assert abs(r - 1) < 1e-25 and t == 1

    def test_torus_ratio_exact_quadratic(self):
        muc = moments.mu_critical(PREC)
        with mp.workprec(PREC):
            for lval in (0.5, 1.0, 2.0):
                r, t = boltzmann.boundary_ratio(1, 1, [lval], muc / 2, PREC)
                want = 1 + mpmath.mpf(lval) ** 2 / 6
                assert abs(r - want) < 1e-20
                assert t == mpmath.sinh(mpmath.mpf(lval)) / mpmath.mpf(lval)

    @pytest.mark.parametrize("prec", [53, 113, 160])
    def test_keeps_the_inline_bits(self, prec):
        def inline(g, n, L, mu):
            # the body before the scale came from MomentFrame.length_scale
            cell = tightpoly.p_gn(g, n)
            frame = moments.cached_frame(mu, cell.d, prec)
            with mp.workprec(prec):
                scale = mpmath.sqrt(-frame.moments[1]
                                    / (3 * frame.moments[0]))
                scaled = [mpmath.mpf(x) * scale for x in L]
                return +(boltzmann.t_value(g, n, scaled, mu, prec)
                         / boltzmann.t_value(g, n, [0] * n, mu, prec))

        muc = moments.mu_critical(prec)
        for frac in ("0", "0.5", "0.99999"):
            with mp.workprec(prec + 16):
                mu = muc * mpmath.mpf(frac)
            for g, n, L in ((2, 2, [1.2, 0.4]), (3, 1, [0.7])):
                got, _ = boltzmann.boundary_ratio(g, n, L, mu, prec)
                assert got._mpf_ == inline(g, n, L, mu)._mpf_

    def test_profile_gap_shrinks_with_genus(self):
        muc = moments.mu_critical(PREC)
        gaps = []
        for g in (4, 6):
            mu_g = muc - mpmath.mpf(g) ** -3
            r, t = boltzmann.boundary_ratio(g, 1, [1.0], mu_g, PREC)
            gaps.append(abs(float(r / t) - 1))
        assert gaps[1] < gaps[0]


class TestSeparating:
    def test_decomposition_enumeration(self):
        got = boltzmann.separating_decompositions(10, 1, 2)
        assert got == [((k, 1), (10 - k, 1)) for k in range(1, 10)]

    def test_empty_enumeration_gives_zero(self):
        assert boltzmann.separating_sum(2, 2, 3, 0.01, PREC) == 0

    def test_positive(self):
        muc = moments.mu_critical(PREC)
        assert boltzmann.separating_sum(4, 1, 2, muc / 2, PREC) > 0

    def test_validations(self):
        with pytest.raises(DomainError):
            boltzmann.separating_decompositions(4, 0, 2)
        with pytest.raises(DomainError):
            boltzmann.separating_decompositions(4, 1, 3)


def test_crude_bound_ratio_stays_bounded():
    """|P_{g,n}(L, M)| / (-M_1/M_0)^(3g-3+n) settles to a constant as
    mu -> mu_c (recorded empirically, not asserted against a formula)."""
    muc = moments.mu_critical(PREC)
    g, n = 2, 1
    cell = tightpoly.p_gn(g, n)
    ratios = []
    with mp.workprec(PREC):
        for e in (2, 3, 4, 6, 8, 10):
            fr, groups = boltzmann.cell_groups(
                g, n, muc - mpmath.mpf(10) ** -e, PREC)
            val, _, _ = ring.eval_ell_groups(groups, [1.0], PREC)
            scale = (-fr.moments[1] / fr.moments[0]) ** cell.d
            ratios.append(abs(float(val / scale)))
    assert all(math.isfinite(r) for r in ratios)
    # bounded: the near-critical values flatten out
    assert max(ratios) < 10 * ratios[-1]
    assert abs(ratios[-1] / ratios[-2] - 1) < 0.01


def test_generating_function_nonnegative_coefficients():
    for g in (2, 3):
        s = moments.t_volume_series(g, 0, 30)
        for j in range(31):
            assert all(q > 0 for _e, q in s.coeff(j).items())
