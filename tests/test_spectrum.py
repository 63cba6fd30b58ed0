"""Length-spectrum layer: intensity, normalization, expected counts and
the seeded samplers."""

import hashlib
import itertools
import math
import os
import statistics
import subprocess
import sys

import mpmath
import pytest
from mpmath import mp

from tightwp import moments, spectrum, tightpoly
from tightwp.errors import BudgetError, DomainError
from tightwp.spectrum import IntervalSet

PREC = 113


class TestIntensity:
    def test_frozen_oracle_values(self):
        assert mpmath.nstr(spectrum.intensity(0, 1, PREC), 16) == \
            "0.2606512760786754"
        assert mpmath.nstr(spectrum.intensity(1, 2, PREC), 16) == \
            "0.921652801106761"

    def test_degenerate_window(self):
        assert spectrum.intensity(0.7, 0.7, PREC) == 0

    def test_additivity(self):
        with mp.workprec(PREC):
            d = spectrum.intensity(0, 2, PREC) \
                - spectrum.intensity(0, 1, PREC) \
                - spectrum.intensity(1, 2, PREC)
            assert abs(d) < 1e-12

    def test_series_matches_adaptive_quadrature(self):
        with mp.workprec(80):
            for (a, b) in [(0, 1), (0.5, 2.5), (3, 7), (0, 10)]:
                series = spectrum.intensity(a, b, 80)
                quad = mp.quad(lambda t: (mp.cosh(t) - 1) / t, [a, b])
                assert abs(series / quad - 1) < 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            spectrum.intensity(2, 1, PREC)
        with pytest.raises(DomainError):
            spectrum.intensity(-1, 1, PREC)
        for a, b in ((math.nan, 1), (0, math.nan), (0, 1e8),
                     (0, spectrum.INTENSITY_B_MAX + 1)):
            with pytest.raises(DomainError):
                spectrum.intensity(a, b, PREC)
        assert spectrum.intensity(0, spectrum.INTENSITY_B_MAX, PREC) > 0

    def test_float_kernel_consistency(self):
        for t in (0.5, 1.0, 3.0, 6.0):
            fast = spectrum._intensity_f(t)
            slow = float(spectrum.intensity(0, t, 60))
            assert abs(fast / slow - 1) < 1e-13
        # the divisor table gives the per-call loop's floats bit for bit
        for t in [0.0, 1e-200, 1e-3] + [j / 7 for j in range(70)]:
            total, p, fact, k = 0.0, 1.0, 1.0, 0
            while True:
                k += 1
                p *= t * t
                fact *= (2 * k - 1) * (2 * k)
                term = p / (2 * k * fact)
                total += term
                if term < 1e-18 * total + 5e-324:
                    break
            assert spectrum._intensity_f(t) == total


class TestSystole:
    def test_values(self):
        assert spectrum.systole_tail(0, PREC) == 1
        with mp.workprec(PREC):
            want = mpmath.exp(-spectrum.intensity(0, 1, PREC))
            assert abs(spectrum.systole_tail(1, PREC) - want) < 1e-30
        assert mpmath.nstr(spectrum.systole_tail(1, PREC), 6) == "0.77055"

    def test_strictly_decreasing(self):
        vals = [spectrum.systole_tail(t, PREC)
                for t in (0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            spectrum.systole_tail(-1, PREC)
        with pytest.raises(DomainError):
            spectrum.systole_tail(math.nan, PREC)


class TestNormalization:
    def test_at_zero(self):
        c, alt = spectrum.normalization(0.0, PREC)
        with mp.workprec(PREC):
            assert abs(c - mp.pi / mpmath.sqrt(6)) < 1e-30
        assert c > 0 and alt > 0

    def test_ratio_near_critical(self):
        muc = moments.mu_critical(PREC)
        c, alt = spectrum.normalization(muc - mpmath.mpf("1e-8"), PREC)
        assert 0.99 < float(c / alt) < 1.01

    def test_domain(self):
        with pytest.raises(DomainError):
            spectrum.normalization(math.nan, PREC)

    @pytest.mark.parametrize("prec", [53, 90, 113, 160])
    def test_scale_keeps_the_inline_bits(self, prec):
        # c(mu) = sqrt(-M_1/(12 M_0)) and the boundary-ratio scale
        # sqrt(-M_1/(3 M_0)), as normalization and boundary_ratio formed
        # them before both read MomentFrame.length_scale
        muc = moments.mu_critical(prec)
        for frac in ("0", "1e-3", "0.5", "0.99", "0.9999999"):
            with mp.workprec(prec + 16):
                mu = muc * mpmath.mpf(frac)
            frame = moments.cached_frame(mu, 1, prec)
            m0, m1 = frame.moments
            with mp.workprec(prec):
                c = mpmath.sqrt(-m1 / (12 * m0))
                scale = mpmath.sqrt(-m1 / (3 * m0))
            assert spectrum.normalization(mu, prec)[0]._mpf_ == c._mpf_
            assert frame.length_scale()._mpf_ == scale._mpf_


class TestIntervalSet:
    def test_parse_and_fields(self):
        ws = IntervalSet.parse("0.5:1:2,2:3")
        assert ws.intervals == ((0.5, 1.0), (2.0, 3.0))
        assert ws.multiplicities == (2, 1)
        assert ws.total_order == 3
        assert ws.expanded() == [(0.5, 1.0), (0.5, 1.0), (2.0, 3.0)]

    def test_validation(self):
        with pytest.raises(DomainError):
            IntervalSet.make([(1.0, 0.5)])
        with pytest.raises(DomainError):
            IntervalSet.make([(0.0, 2.0), (1.0, 3.0)])
        with pytest.raises(DomainError):
            IntervalSet.make([(0.0, 1.0)], [0])
        with pytest.raises(DomainError):
            IntervalSet.parse("1:2:3:4")
        for bad in ((1.0, math.inf), (math.nan, 1.0), (0.0, math.nan)):
            with pytest.raises(DomainError):
                IntervalSet.make([bad])

    def test_lambda_product(self):
        ws = IntervalSet.parse("1:2:2")
        with mp.workprec(PREC):
            lam = spectrum.intensity(1, 2, PREC)
            assert abs(ws.lambda_product(PREC) - lam ** 2) < 1e-25


class TestExpectedCounts:
    def setup_method(self):
        self.muc = moments.mu_critical(PREC)

    def test_zero_width_window_counts_zero(self):
        ws = IntervalSet.make([(1.0, 1.0)])
        mu = self.muc - mpmath.mpf(4) ** -4
        assert spectrum.expected_nonseparating_count(4, mu, ws, PREC) == 0

    def test_window_additivity_exact(self):
        mu = self.muc - mpmath.mpf(4) ** -4
        full = spectrum.expected_nonseparating_count(
            4, mu, IntervalSet.make([(0.8, 1.6)]), PREC)
        left = spectrum.expected_nonseparating_count(
            4, mu, IntervalSet.make([(0.8, 1.2)]), PREC)
        right = spectrum.expected_nonseparating_count(
            4, mu, IntervalSet.make([(1.2, 1.6)]), PREC)
        with mp.workprec(PREC):
            assert abs((left + right) / full - 1) < mpmath.mpf(2) ** -80

    def test_closed_form_matches_adaptive_quadrature(self):
        from tightwp import boltzmann

        g = 3
        mu = self.muc - mpmath.mpf(g) ** -4
        ws = IntervalSet.make([(1.0, 2.0)])
        count = spectrum.expected_nonseparating_count(g, mu, ws, PREC)
        with mp.workprec(90):
            c, _ = spectrum.normalization(mu, 90)
            t_g = boltzmann.t_value(g, 0, [], mu, 90)

            def integrand(x):
                t = boltzmann.t_value(g - 1, 2, [x, x], mu, 90)
                return t / t_g * x / 2

            quad = mp.quad(integrand, [c * 1, c * 2])
            assert abs(float(count / quad) - 1) < 1e-8

    def test_two_windows_product_structure(self):
        g = 5
        mu = self.muc - mpmath.mpf(g) ** -4
        ws = IntervalSet.make([(0.8, 1.2), (1.6, 2.0)])
        e = spectrum.expected_nonseparating_count(g, mu, ws, PREC)
        assert e > 0

    def test_inadmissible_cut_topology(self):
        ws = IntervalSet.make([(1.0, 2.0)], [4])
        with pytest.raises(DomainError):
            spectrum.expected_nonseparating_count(3, 0.02, ws, PREC)

    def test_mu_domain(self):
        ws = IntervalSet.make([(1.0, 2.0)])
        with pytest.raises(DomainError):
            spectrum.expected_nonseparating_count(3, 0.0, ws, PREC)

    def test_count_keeps_the_inline_bits(self, monkeypatch):
        def inline_scale(frame):
            # twice the c(mu) = sqrt(-M_1/(12 M_0)) the count formed inline
            with mp.workprec(frame.precision):
                return 2 * mpmath.sqrt(-frame.moments[1]
                                       / (12 * frame.moments[0]))

        ws = IntervalSet.make([(0.5, 1.5)])
        for prec in (53, 113):
            muc = moments.mu_critical(prec)
            for g, gap in ((3, "0.5"), (4, "1e-5")):
                with mp.workprec(prec + 16):
                    mu = muc * (1 - mpmath.mpf(gap))
                got = spectrum.expected_nonseparating_count(g, mu, ws, prec)
                with monkeypatch.context() as m:
                    m.setattr(moments.MomentFrame, "length_scale",
                              inline_scale)
                    want = spectrum.expected_nonseparating_count(g, mu, ws,
                                                                 prec)
                assert got._mpf_ == want._mpf_, (prec, g)


class TestConvergenceTable:
    def test_rejects_beta_two(self):
        ws = IntervalSet.make([(1.0, 2.0)])
        with pytest.raises(DomainError):
            spectrum.mp_convergence_table([4, 5], 2.0, ws, PREC)

    def test_override_allows_exploration(self):
        ws = IntervalSet.make([(1.0, 2.0)])
        rows = spectrum.mp_convergence_table([8], 1.9, ws, PREC,
                                             allow_small_beta=True)
        assert len(rows) == 1

    def test_lambda_column_constant_and_ratio_moves(self):
        ws = IntervalSet.make([(1.0, 2.0)])
        rows = spectrum.mp_convergence_table(range(3, 6), 4.0, ws, PREC)
        lams = {mpmath.nstr(r["lambda_target"], 18) for r in rows}
        assert len(lams) == 1
        ratios = [float(r["ratio"]) for r in rows]
        assert abs(ratios[-1] - 1) < abs(ratios[0] - 1)

    def test_genus_too_small_for_rule(self):
        ws = IntervalSet.make([(1.0, 2.0)])
        with pytest.raises(DomainError):
            spectrum.mp_convergence_table([2], 3.0, ws, PREC)

    def test_genus_zero_is_refused(self):
        # 0^(-beta) is not formed, so no ZeroDivisionError escapes
        ws = IntervalSet.make([(1.0, 2.0)])
        with pytest.raises(DomainError, match="below 1"):
            spectrum.mp_convergence_table(range(0, 3), 4.0, ws, PREC)

    @pytest.mark.parametrize("g_range", [range(5, 4), []])
    def test_empty_genus_range_is_refused(self, g_range):
        ws = IntervalSet.make([(1.0, 2.0)])
        with pytest.raises(DomainError, match="empty"):
            spectrum.mp_convergence_table(g_range, 4.0, ws, PREC)

    @pytest.mark.parametrize("text", ["1:1", "0.5:1,2:2"])
    def test_zero_width_window_is_refused(self, text):
        ws = IntervalSet.parse(text)
        assert ws.lambda_product(PREC) == 0
        with pytest.raises(DomainError, match="zero-width"):
            spectrum.mp_convergence_table([4], 3.0, ws, PREC)


class TestStream:
    @pytest.mark.parametrize("seed", [0, -1, 2 ** 70])
    def test_uniforms_follow_the_shake128_definition(self, seed):
        # uniform k is the k-th little-endian 64-bit word of the SHAKE-128
        # output of the seed's decimal digits, top 53 bits over 2^53; 21
        # words fill the first SHAKE block the stream holds
        data = hashlib.shake_128(str(seed).encode("ascii")).digest(21 * 8)
        want = [(int.from_bytes(data[8 * k:8 * k + 8], "little") >> 11)
                / 2 ** 53 for k in range(21)]
        rng = spectrum._rng(seed)
        assert [rng.random() for _ in range(21)] == want

    @staticmethod
    def _shake_uniforms(seed, n):
        data = hashlib.shake_128(b"%d" % seed).digest(8 * n)
        return [(int.from_bytes(data[8 * k:8 * k + 8], "little") >> 11)
                / 2 ** 53 for k in range(n)]

    @pytest.mark.parametrize("cut", [20, 21, 22, 41, 42, 43])
    def test_reads_across_the_held_blocks(self, cut):
        # the stream holds words 0..20 and then doubles its bytes, so
        # words 21 and 42 are the first of a re-read; every way of
        # crossing them gives the direct SHAKE-128 words
        want = self._shake_uniforms(7, 100)
        rng = spectrum._rng(7)
        assert [rng.random() for _ in range(cut)] + rng.randoms(100 - cut) \
            == want
        rng = spectrum._rng(7)
        assert rng.randoms(cut) + [rng.random() for _ in range(100 - cut)] \
            == want
        rng = spectrum._rng(7)
        got = rng.randoms(cut - 1) + [rng.random()] + rng.randoms(0)
        got += rng.randoms(1) + rng.randoms(100 - cut - 1)
        assert got == want
        rng = spectrum._rng(7)
        assert rng.randoms(100) == want

    def test_batched_and_sequential_reads_agree(self):
        for seed in range(200):
            seq = spectrum._rng(seed)
            want = [seq.random() for _ in range(70)]
            rng = spectrum._rng(seed)
            got = [rng.random()] + rng.randoms(seed % 40)
            got += rng.randoms(0) + rng.randoms(3)
            got += [rng.random() for _ in range(70 - len(got))]
            assert got == want, seed

    def test_poisson_sample_reads_its_points_in_one_batch(self):
        # the sampler's batched read gives the points that sequential
        # reads give, at a mean (about 500) that runs far past one read
        t_max = 8.9
        lam = spectrum._intensity_f(t_max)
        assert 400 < lam < 600
        for seed in range(3):
            rng = spectrum._rng(seed)
            n = spectrum._poisson_draw(rng, lam)
            us = sorted(rng.random() * lam for _ in range(n))
            got = spectrum.sample_poisson_process(t_max, seed).points
            assert [spectrum._intensity_f(t) for t in got] == \
                pytest.approx(us, rel=1e-12, abs=1e-12)

    def test_fresh_seeds_give_uncorrelated_uniforms(self):
        # seeds C11 never reads; uniform 21 is the first past the first
        # SHAKE block
        n = 20_000
        seeds = range(10 ** 6, 10 ** 6 + n)
        for k in (0, 8, 21):
            us = [spectrum._rng(s).randoms(k + 1)[k] for s in seeds]
            assert abs(statistics.mean(us) - 0.5) < 4 * math.sqrt(1 / 12 / n)
            r = statistics.correlation(us[:-1], us[1:])
            assert abs(r) < 4 / math.sqrt(n), (k, r)

    @pytest.mark.parametrize("seed", [1.5, 1.0, "1", None])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(DomainError, match="integer"):
            spectrum.sample_poisson_process(3.0, seed)
        with pytest.raises(DomainError, match="integer"):
            spectrum.sample_cusp_count(2, 0.01, seed, PREC)


class TestSamplers:
    def test_poisson_determinism_and_support(self):
        a = spectrum.sample_poisson_process(3.0, 123)
        b = spectrum.sample_poisson_process(3.0, 123)
        assert a == b
        assert all(0 <= t <= 3.0 for t in a.points)
        assert list(a.points) == sorted(a.points)

    def test_poisson_empirical_statistics(self):
        n = 4000
        lam = float(spectrum.intensity(0, 3, 60))
        samples = [spectrum.sample_poisson_process(3.0, s) for s in range(n)]
        counts = [len(s) for s in samples]
        assert abs(statistics.mean(counts) - lam) < 4 * math.sqrt(lam / n)
        # counts in disjoint windows are uncorrelated (Poisson independence)
        c1 = [s.count_in(0.2, 1.2) for s in samples]
        c2 = [s.count_in(1.8, 2.8) for s in samples]
        corr = statistics.correlation(c1, c2)
        assert abs(corr) < 0.08

    def test_count_in_matches_a_scan(self):
        for seed in range(300):
            sample = spectrum.sample_poisson_process(1 + seed % 4, seed)
            pts = sample.points
            ends = list(pts[:3]) + list(pts[-2:]) + [0.0, 0.7, 2.5, 5.0]
            for a in ends:
                for b in ends:
                    want = sum(1 for t in pts if a <= t <= b)
                    assert sample.count_in(a, b) == want, (seed, a, b)
        assert spectrum.PointSample(points=()).count_in(0.0, 1.0) == 0
        assert spectrum.PointSample(points=(1.0, 1.0, 2.0)).count_in(
            1.0, 1.0) == 2

    def test_poisson_domain(self):
        with pytest.raises(DomainError):
            spectrum.sample_poisson_process(0.0, 1)

    @pytest.mark.parametrize("t_max", ["10", "100"])
    def test_poisson_refuses_large_t_max_at_once(self, t_max):
        # lambda_{0,10} = 1243 makes exp(-lambda) underflow, and at t = 100
        # the float intensity overflows; both are refused before any draw.
        # The CLI runs in a child process so that a hang fails the test.
        src = os.path.dirname(os.path.dirname(spectrum.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys; from tightwp import cli; sys.exit(cli.main("
                f"['sample', '--kind', 'poisson', '--t-max', '{t_max}']))")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=30)
        assert done.returncode == 2
        assert "underflows" in done.stderr

    @staticmethod
    def _bisection_sample(t_max, seed):
        """Reference sampler: the same draws, each point found by 60
        bisection steps of the float intensity on [0, t_max]."""
        rng = spectrum._rng(seed)
        lam = spectrum._intensity_f(t_max)
        pts = []
        for _ in range(spectrum._poisson_draw(rng, lam)):
            u = rng.random() * lam
            lo, hi = 0.0, t_max
            for _ in range(60):
                mid = (lo + hi) / 2
                if spectrum._intensity_f(mid) < u:
                    lo = mid
                else:
                    hi = mid
            pts.append((lo + hi) / 2)
        return sorted(pts)

    def test_poisson_points_match_bisection_reference(self):
        for seed in range(400):
            t_max = 1 + 3 * (seed % 61) / 60
            got = spectrum.sample_poisson_process(t_max, seed).points
            want = self._bisection_sample(t_max, seed)
            assert len(got) == len(want)
            for t, ref in zip(got, want):
                assert abs(t - ref) <= 4 * math.ulp(ref), (seed, t_max)

    @staticmethod
    def _largest_accepted_t_max():
        """The largest float t_max whose exp(-lambda) _poisson_draw
        accepts, by bisecting the floats between the last two knots."""
        def accepted(t):
            return math.exp(-spectrum._intensity_f(t)) > 0.0

        knots = len(spectrum._KNOT_LAM)
        lo, hi = (knots - 2) / 32, (knots - 1) / 32
        assert accepted(lo) and not accepted(hi)
        while math.nextafter(lo, hi) < hi:
            mid = (lo + hi) / 2
            if accepted(mid):
                lo = mid
            else:
                hi = mid
        return lo

    def test_poisson_knot_edges(self):
        t_top = self._largest_accepted_t_max()
        with pytest.raises(DomainError):
            spectrum.sample_poisson_process(math.nextafter(t_top, 10), 0)
        cases = [(1.0, 300), (math.nextafter(1.0, 0), 300),
                 (math.nextafter(1.0, 2), 300), (2.5, 300),
                 (math.nextafter(2.5, 0), 300), (math.nextafter(2.5, 3), 300),
                 (0.01, 300), (t_top, 3)]
        for t_max, seeds in cases:
            for seed in range(seeds):
                got = spectrum.sample_poisson_process(t_max, seed).points
                replay = spectrum._poisson_draw(
                    spectrum._rng(seed), spectrum._intensity_f(t_max))
                assert len(got) == replay, (t_max, seed)
                want = self._bisection_sample(t_max, seed)
                for t, ref in zip(got, want):
                    assert abs(t - ref) <= 4 * math.ulp(ref), (t_max, seed)
                assert all(0 <= t <= t_max for t in got)

    @staticmethod
    def _evaluations_per_point(monkeypatch, t_max, seeds):
        """The float intensity evaluations of each point's root, over the
        samples of ``seeds`` at t_max, and the total over the samples."""
        calls, per_point = [0], []
        intensity_f, newton_root = spectrum._intensity_f, spectrum._newton_root

        def counted_intensity(t):
            calls[0] += 1
            return intensity_f(t)

        def counted_root(*args):
            before = calls[0]
            root = newton_root(*args)
            per_point.append(calls[0] - before)
            return root

        monkeypatch.setattr(spectrum, "_intensity_f", counted_intensity)
        monkeypatch.setattr(spectrum, "_newton_root", counted_root)
        for seed in seeds:
            spectrum.sample_poisson_process(t_max, seed)
        monkeypatch.undo()
        return per_point, calls[0]

    def test_poisson_point_takes_one_intensity_evaluation(self, monkeypatch):
        t_top = self._largest_accepted_t_max()
        cases = [(0.01, 300), (1 / 32, 300), (math.nextafter(1 / 32, 0), 300),
                 (math.nextafter(1.0, 0), 300), (math.nextafter(2.5, 3), 300),
                 (t_top, 3), (1.0, 300), (2.0, 300), (3.0, 100), (4.0, 100)]
        samples = points = evaluations = 0
        for t_max, seeds in cases:
            per_point, total = self._evaluations_per_point(
                monkeypatch, t_max, range(seeds))
            # one evaluation at t_max per sample, then the points'
            assert total == seeds + sum(per_point), t_max
            assert max(per_point, default=1) <= 2, t_max
            samples += seeds
            points += len(per_point)
            evaluations += total
        assert points > 4000
        assert evaluations <= samples + 1.001 * points

    def test_bracket_polynomials_meet_the_knots(self):
        for j, (_, _, *c) in enumerate(spectrum._KNOT_POLY):
            lo, hi = j * spectrum._KNOT_STEP, (j + 1) * spectrum._KNOT_STEP
            at_one = 0.0
            for ck in reversed(c):
                at_one = at_one + ck
            assert c[0] == lo, j
            assert abs(at_one - hi) <= math.ulp(hi), j

    def test_bracket_polynomials_follow_the_inverse(self):
        # inside each bracket the start lies within a few ulp of the
        # bisection root of lambda_{0,t} = v^2
        for j, (v0, inv_h, *c) in enumerate(spectrum._KNOT_POLY):
            for x in (0.25, 0.5, 0.75):
                u = (v0 + x / inv_h) ** 2
                lo, hi = j / 32, (j + 1) / 32
                for _ in range(60):
                    mid = (lo + hi) / 2
                    if spectrum._intensity_f(mid) < u:
                        lo = mid
                    else:
                        hi = mid
                x = (math.sqrt(u) - v0) * inv_h
                start = 0.0
                for ck in reversed(c):
                    start = start * x + ck
                assert abs(start - lo) <= 8 * math.ulp(lo), (j, x)

    @staticmethod
    def _linear_scan_draw(pmf, seed):
        """Reference cusp draw: the first p whose running sum reaches u,
        else the last index."""
        u = spectrum._rng(seed).random()
        cdf = 0.0
        for p, w in enumerate(pmf.probs):
            cdf += w
            if u <= cdf:
                return p
        return len(pmf.probs) - 1

    def test_cusp_draws_match_linear_scan(self):
        muc = moments.mu_critical(PREC)
        ctx = tightpoly.PolyCache()
        for g, mu in ((3, muc / 2), (2, muc * 2 / 5), (2, muc / 10)):
            draws = [spectrum.sample_cusp_count(g, mu, seed, PREC, ctx)
                     for seed in range(3000)]
            pmf = ctx.pmfs[(g, mu, PREC)]
            assert pmf.cdf == tuple(itertools.accumulate(pmf.probs))
            assert draws == [self._linear_scan_draw(pmf, seed)
                             for seed in range(3000)], g

    def test_cusp_draw_past_the_last_running_sum(self):
        # a pmf whose probs sum to 1/2: every u > 1/2 falls back to the
        # last index
        from tightwp.boltzmann import CuspPmf

        pmf = CuspPmf(probs=(0.125, 0.0, 0.375), raw_mass=1.0,
                      tail_bound=0.0)
        ctx = tightpoly.PolyCache()
        ctx.pmfs[(2, 0.25, PREC)] = pmf
        draws = [spectrum.sample_cusp_count(2, 0.25, seed, PREC, ctx)
                 for seed in range(3000)]
        assert draws == [self._linear_scan_draw(pmf, seed)
                         for seed in range(3000)]
        assert {0, 2} == set(draws)
        assert any(spectrum._rng(seed).random() > pmf.cdf[-1]
                   for seed in range(3000))

    def test_float_and_mpf_mu_share_one_pmf(self):
        mu = float(moments.mu_critical(PREC)) / 3
        with mp.workprec(PREC):
            mu_mpf = mpmath.mpf(mu)
        ctx = tightpoly.PolyCache()
        draws = [spectrum.sample_cusp_count(3, mu, s, PREC, ctx)
                 for s in range(200)]
        assert [spectrum.sample_cusp_count(3, mu_mpf, s, PREC, ctx)
                for s in range(200)] == draws
        assert list(ctx.pmfs) == [(3, mu, PREC)]

    def test_cusp_count_determinism_and_support(self):
        muc = moments.mu_critical(PREC)
        mu = muc / 2
        ctx = tightpoly.PolyCache()
        a = spectrum.sample_cusp_count(3, mu, 7, PREC, ctx)
        assert a == spectrum.sample_cusp_count(3, mu, 7, PREC, ctx)
        assert a == spectrum.sample_cusp_count(3, mu, 7, PREC)
        assert 0 <= a < len(ctx.pmfs[(3, mu, PREC)])

    def test_pmf_cache_keys_on_exact_mu(self):
        prec = 256
        with mp.workprec(prec):
            mu = mpmath.mpf(1) / 100
            near = mu + mpmath.mpf("1e-45")
        ctx = tightpoly.PolyCache()
        spectrum.sample_cusp_count(2, mu, 0, prec, ctx)
        a = ctx.pmfs[(2, mu, prec)]
        spectrum.sample_cusp_count(2, near, 0, prec, ctx)
        assert ctx.pmfs[(2, near, prec)] is not a
        spectrum.sample_cusp_count(2, mu, 1, prec, ctx)
        assert len(ctx.pmfs) == 2 and ctx.pmfs[(2, mu, prec)] is a

    def test_draw_refuses_past_its_context_budget(self):
        # a default-budget draw at the same (g, mu, prec) first: its pmf
        # stays in the default context
        mu = moments.mu_critical(PREC) / 2
        spectrum.sample_cusp_count(3, mu, 0, PREC)
        with pytest.raises(BudgetError):
            spectrum.sample_cusp_count(3, mu, 0, PREC,
                                       tightpoly.PolyCache(budget=10))

    def test_cusp_count_empirical_mean(self):
        from tightwp import boltzmann

        muc = moments.mu_critical(PREC)
        mu = muc / 2
        exact = float(boltzmann.mean_cusps(3, mu, PREC))
        n = 4000
        draws = [spectrum.sample_cusp_count(3, mu, s, PREC)
                 for s in range(n)]
        assert abs(statistics.mean(draws) / exact - 1) < 0.03
