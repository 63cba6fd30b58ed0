"""Closed-form cells, budget refusals, the recursion check, validators,
concentration diagnostics and the persistent store."""

import math

import mpmath
import pytest
from mpmath import mp

from tightwp import cache as twpcache
from tightwp import boltzmann, intersection, moments, tightpoly, verify
from tightwp.errors import BudgetError, CacheError, DomainError, ShapeError
from tightwp.intersection import intersection_number
from tightwp.ring import (MuSeries, Rational, TightPoly, eval_ell_groups,
                          rat_to_str, to_mpf)

PREC = 113


def test_partitions():
    assert list(tightpoly.partitions(0)) == [()]
    assert sorted(tightpoly.partitions(4)) == sorted(
        [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)])


def test_admissible():
    assert tightpoly.admissible(0, 3) and not tightpoly.admissible(0, 2)
    assert tightpoly.admissible(1, 1) and not tightpoly.admissible(1, 0)
    assert tightpoly.admissible(2, 0) and not tightpoly.admissible(-1, 2)


class TestPg0:
    def test_genus_two_structure(self):
        cell = tightpoly.p_gn(2, 0)
        assert cell.d == 3
        terms = cell.poly.terms
        # -m3 <tau_4>, +m1 m2 <tau_2 tau_3>, -(m1^3/6) <tau_2^3>
        assert terms[(0, 0, 1)] == -intersection_number(2, (4,))
        assert terms[(1, 1, 0)] == intersection_number(2, (3, 2))
        assert terms[(3, 0, 0)] == -intersection_number(2, (2, 2, 2)) \
            / Rational(6)
        assert len(terms) == 3

    def test_every_monomial_graded(self):
        for g in (2, 3, 4):
            poly = tightpoly.p_gn(g, 0).poly
            assert {poly.grade(k) for k in poly.terms} == {3 * g - 3}

    def test_budget_refusal_names_cell(self):
        with pytest.raises(BudgetError) as err:
            tightpoly.p_gn(6, 0, budget=100)
        assert err.value.g == 6 and err.value.n == 0


class TestBudget:
    def test_term_count_is_exact(self):
        for g, n in [(0, 3), (1, 1), (2, 0), (2, 2), (3, 4), (5, 3)]:
            assert tightpoly.term_count(g, n) == len(tightpoly.p_gn(g, n).poly)
        # sum_j C(j+n-1, n-1) p(D-j) at (g, n) = (3, 2), D = 8
        p = [1, 1, 2, 3, 5, 7, 11, 15, 22]
        assert tightpoly.term_count(3, 2) == sum(
            (j + 1) * p[8 - j] for j in range(9)) == 187

    def test_refusal_ignores_memo_and_store(self, poly_cache):
        poly_cache.store(tightpoly.p_gn(2, 2))
        with pytest.raises(BudgetError) as err:
            tightpoly.p_gn(2, 2, budget=10)
        assert (err.value.g, err.value.n) == (2, 2)
        assert err.value.count == 45 and err.value.budget == 10
        assert "about" not in str(err.value)
        # a context holding the cell refuses it too
        tightpoly.p_gn(2, 2, cache=poly_cache)
        with pytest.raises(BudgetError) as err:
            tightpoly.p_gn(2, 2, cache=poly_cache, budget=10)
        assert err.value.count == 45
        with pytest.raises(BudgetError) as err:
            tightpoly.p_gn(2, 2, cache=tightpoly.PolyCache(poly_cache.root),
                           budget=10)
        assert err.value.count == 45

    def test_budget_rides_on_the_cache(self, poly_cache):
        assert tightpoly.PolyCache().budget == tightpoly.DEFAULT_BUDGET
        bare = tightpoly.PolyCache(budget=10)
        with pytest.raises(BudgetError) as err:
            tightpoly.p_gn(2, 2, cache=bare)
        assert err.value.budget == 10
        stored = tightpoly.PolyCache(poly_cache.root, budget=10)
        with pytest.raises(BudgetError):
            tightpoly.p_gn(2, 2, cache=stored)
        # an explicit budget wins over the cache's
        assert len(tightpoly.p_gn(2, 2, cache=bare, budget=45).poly) == 45

    def test_cache_without_root_touches_no_disk(self, tmp_path,
                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        bare = tightpoly.PolyCache()
        cell = tightpoly.p_gn(1, 2, cache=bare)
        bare.store(cell)
        assert bare.load(1, 2) is None
        assert bare.save_tau() == bare.load_tau() == 0
        assert list(tmp_path.iterdir()) == []

    def test_refusal_does_no_work(self):
        cells = dict(tightpoly._cells)
        memo = intersection.cache_size()
        with pytest.raises(BudgetError) as err:
            tightpoly.p_gn(5, 6, budget=10_000)
        assert (err.value.g, err.value.n) == (5, 6)
        assert err.value.count == 718_339
        assert tightpoly._cells == cells
        assert intersection.cache_size() == memo


class TestRunContext:
    """A PolyCache owns the cells built under its budget and store; no
    other context sees them."""

    def test_a_cell_built_without_a_cache_is_in_the_module_memo(self):
        # perfbench checks that a fresh interpreter starts with an empty
        # tightpoly._cells, which is only a check while calls without a
        # cache fill it
        cell = tightpoly.p_gn(2, 1)
        assert tightpoly._cells is tightpoly.DEFAULT_CACHE.cells
        assert tightpoly._cells[(2, 1)] is cell

    def test_store_is_written_when_another_context_holds_the_cell(
            self, poly_cache):
        tightpoly.p_gn(2, 2)
        cell = tightpoly.p_gn(2, 2, cache=poly_cache)
        assert poly_cache._cell_path(2, 2).exists()
        assert poly_cache.load(2, 2).poly == cell.poly
        assert poly_cache.cells == {(2, 2): cell}

    def test_bad_stored_cell_is_refused_when_another_context_holds_it(
            self, poly_cache):
        cell = tightpoly.p_gn(1, 2)
        cols = cell.poly.to_columns()
        keys = _keys(cols, 2 + cell.d)
        twpcache.write_twp(poly_cache._cell_path(1, 2), "poly",
                           [1, 2, cell.d], _cols(cols[0], keys[1:],
                                                 cols[2][1:]))
        with pytest.raises(CacheError, match="has 6 terms, expected 7"):
            tightpoly.p_gn(1, 2, cache=poly_cache)
        assert poly_cache.cells == {}


class TestPgn:
    def test_inadmissible_rejected(self):
        with pytest.raises(DomainError):
            tightpoly.p_gn(0, 2)
        with pytest.raises(DomainError):
            tightpoly.p_gn(1, 0)

    def test_validate_cell_and_corruption(self):
        cell = tightpoly.p_gn(2, 2)
        assert tightpoly.validate_cell(cell)
        # corrupt a boundary-asymmetric monomial: breaks the symmetry check
        bad_terms = dict(cell.poly.terms)
        key = next(k for k in bad_terms if k[0] != k[1])
        bad_terms[key] = bad_terms[key] + 1
        bad = tightpoly.PolyCell(2, 2, TightPoly(2, cell.d, bad_terms))
        assert not tightpoly.validate_cell(bad)
        assert tightpoly.validate_cell_report(bad)
        # corrupt the grading: a stray constant term breaks homogeneity
        bad_terms = dict(cell.poly.terms)
        bad_terms[(0,) * (2 + cell.d)] = Rational(1)
        bad = tightpoly.PolyCell(2, 2, TightPoly(2, cell.d, bad_terms))
        assert any("homogeneous" in msg
                   for msg in tightpoly.validate_cell_report(bad))
        # the first bad monomial is reported once
        assert sum("homogeneous" in msg
                   for msg in tightpoly.validate_cell_report(bad)) == 1

    def test_recursion_check_catches_one_changed_coefficient(self):
        cell = tightpoly.p_gn(2, 2)
        assert verify.recursion_holds(cell)
        terms = dict(cell.poly.terms)
        key = next(iter(terms))
        terms[key] = terms[key] + Rational(1, 7)
        bad = tightpoly.PolyCell(2, 2, TightPoly(2, cell.d, terms))
        assert not verify.recursion_holds(bad)

    def test_cusp_step_of_the_one_cusped_torus_is_the_hand_form(self):
        # P_{1,1}(0, m) = -m1/24 gives -m2/24 + m1^2/12, the ell = 0 part
        # of the hand form of P_{1,2} in C02
        got = verify.cusp_step(tightpoly.p_gn(1, 1))
        assert got == TightPoly(2, 2, {(0, 0, 0, 1): Rational(-1, 24),
                                       (0, 0, 2, 0): Rational(1, 12)})

    def test_cusp_check_catches_one_changed_coefficient(self):
        cell = tightpoly.p_gn(2, 1)
        assert verify.cusp_step_holds(cell)
        terms = dict(cell.poly.terms)
        key = next(k for k in terms if k[0] == 0)
        terms[key] = terms[key] + Rational(1, 7)
        bad = tightpoly.PolyCell(2, 1, TightPoly(1, cell.d, terms))
        assert not verify.cusp_step_holds(bad)

    @pytest.mark.parametrize("key, out_key, share", [
        # ell_1^4: its boundary integral puts q/(2*4 + 2) on ell_2^5
        ((4, 0, 0, 0, 0), (0, 5, 0, 0, 0, 0, 0), Rational(1, 10)),
        # m_2^2: its m_2-derivative puts -2q/(2^3 3!) on ell_1^3 m_2
        ((0, 0, 2, 0, 0), (3, 0, 0, 1, 0, 0, 0), Rational(-1, 24)),
    ], ids=["boundary-integral", "derivative"])
    def test_recursion_step_sees_one_changed_input_coefficient(
            self, key, out_key, share):
        prev = tightpoly.p_gn(2, 1)
        target = tightpoly.p_gn(2, 2).poly
        terms = dict(prev.poly.terms)
        delta = Rational(1, 7)
        terms[key] += delta
        got = verify.recursion_step(
            tightpoly.PolyCell(2, 1, TightPoly(1, prev.d, terms)))
        assert got != target
        assert got.terms.get(out_key, 0) - target.terms.get(out_key, 0) \
            == share * delta

    def test_asymmetric_cell_reported(self):
        poly = TightPoly(2, 0, {(1, 0): Rational(1)})
        bad = tightpoly.PolyCell(0, 5, poly)  # shape only matters here
        assert any("symmetric" in msg
                   for msg in tightpoly.validate_cell_report(bad))


def _old_validate(cell):
    """The adjacent-transposition check validate_cell replaced: a cell
    is valid iff every swap of neighbouring boundaries maps each term to
    a term with the same coefficient, and every monomial has graded
    degree 3g - 3 + n."""
    terms, n = cell.poly.terms, cell.poly.n_ell
    for i in range(1, n):
        for key, q in terms.items():
            if terms.get(key[:i - 1] + (key[i], key[i - 1]) + key[i + 1:]) \
                    != q:
                return False
    return all(cell.poly.grade(key) == cell.d for key in terms)


def _corrupted(cell, change):
    """A copy of cell whose term map change(terms) edits in place."""
    terms = dict(cell.poly.terms)
    change(terms)
    return tightpoly.PolyCell(cell.genus, cell.boundaries,
                              TightPoly._raw(cell.boundaries, cell.d, terms))


class TestValidateGenerators:
    """validate_cell checks symmetry under the swap of boundaries 1 and 2
    and the cycle of all n, with the verdict of the adjacent-transposition
    check."""

    @pytest.mark.parametrize("g, n, ell", [(2, 3, (1, 1, 0)),
                                           (1, 4, (1, 1, 0, 0))],
                             ids=["three-boundaries", "four-boundaries"])
    def test_asymmetry_under_the_swap_of_2_and_3_only(self, g, n, ell):
        # changing one term whose ell-block starts with a repeated entry
        # keeps the swap of boundaries 1 and 2, and breaks that of 2 and 3
        cell = tightpoly.p_gn(g, n)
        key = next(k for k in cell.poly.terms if k[:n] == ell)

        def change(terms):
            terms[key] += Rational(1, 7)

        bad = _corrupted(cell, change)
        assert not _old_validate(bad)
        assert tightpoly.validate_cell_report(bad) == [
            "not symmetric under cycling the boundaries"]

    @pytest.mark.parametrize("g, n", [(2, 2), (2, 3), (2, 4)])
    def test_one_deleted_orbit_member(self, g, n):
        cell = tightpoly.p_gn(g, n)
        key = next(k for k in cell.poly.terms if len(set(k[:n])) == n)

        def change(terms):
            del terms[key]

        bad = _corrupted(cell, change)
        assert not _old_validate(bad)
        report = tightpoly.validate_cell_report(bad)
        assert report and all("symmetric" in msg for msg in report)

    def test_a_swap_of_boundaries_1_and_2_is_named(self):
        cell = tightpoly.p_gn(2, 3)
        key = next(k for k in cell.poly.terms if k[:3] == (2, 0, 0))

        def change(terms):
            terms[key] += 1

        assert "not symmetric under swapping boundaries 1 and 2" in \
            tightpoly.validate_cell_report(_corrupted(cell, change))

    @pytest.mark.parametrize("g, n", [(2, 0), (3, 0), (4, 0), (5, 0),
                                      (1, 1), (2, 1), (4, 1)])
    def test_cells_without_a_generator_stay_valid(self, g, n):
        cell = tightpoly.p_gn(g, n)
        assert tightpoly.validate_cell_report(cell) == []
        # with no generator, no change of a coefficient is asymmetric
        key = next(iter(cell.poly.terms))

        def change(terms):
            terms[key] += 1

        assert tightpoly.validate_cell(_corrupted(cell, change))

    def test_same_verdict_as_adjacent_transpositions(self):
        cells = [tightpoly.p_gn(g, n) for g in range(6) for n in range(6)
                 if tightpoly.admissible(g, n)]
        for cell in cells:
            assert tightpoly.validate_cell(cell) is _old_validate(cell) \
                is True, (cell.genus, cell.boundaries)
        # every single-coefficient change of a small cell
        for g, n in [(0, 5), (1, 3), (2, 3), (1, 4)]:
            cell = tightpoly.p_gn(g, n)
            for key in cell.poly.terms:
                def change(terms, key=key):
                    terms[key] += 1

                bad = _corrupted(cell, change)
                assert tightpoly.validate_cell(bad) is _old_validate(bad), \
                    key


def _old_closed_form(g, n):
    """P_{g,n} by the Fraction route the closed form replaced: per
    (m-key, sorted ell-block), intersection_number of the whole key over
    2^|d| prod d_i! prod (-1)^a_k a_k!, terms by m-key, then ell-key."""
    d = 3 * g - 3 + n
    ells = [[()]] + [[] for _ in range(d)]
    for _ in range(n):
        ells = [[(a,) + c for a in range(j + 1) for c in ells[j - a]]
                for j in range(d + 1)]
    m_rows = [((), 0, (), 1)]
    for k in range(d, 0, -1):
        m_rows = [((a,) + key, w + k * a, taus + (k + 1,) * a,
                   den * (-1) ** a * math.factorial(a))
                  for key, w, taus, den in m_rows
                  for a in range((d - w) // k + 1)]
    terms = []
    for m_key, weight, m_taus, m_den in sorted(m_rows):
        if n == 0 and weight != d:
            continue
        for c in ells[d - weight]:
            taus = tuple(sorted(c, reverse=True))
            den = math.prod(map(math.factorial, taus)) << sum(taus)
            terms.append((c + m_key, intersection_number(g, taus + m_taus)
                          / (m_den * den)))
    return terms


class TestIntRoute:
    """Cells read the memo's int X with one Rational per coefficient."""

    @pytest.mark.parametrize("g, n", [(g, n) for g in range(4)
                                      for n in range(5)
                                      if tightpoly.admissible(g, n)]
                             + [(g, 0) for g in range(4, 7)])
    def test_coefficients_equal_the_fraction_route(self, g, n):
        got = list(tightpoly.p_gn(g, n).poly.terms.items())
        want = _old_closed_form(g, n)
        assert got == want
        assert [(q.numerator, q.denominator) for _, q in got] == \
            [(q.numerator, q.denominator) for _, q in want]

    def test_cold_build_fills_the_memo_and_not_values(self, monkeypatch):
        monkeypatch.setattr(intersection, "_memo", {})
        monkeypatch.setattr(intersection, "_values", {})
        tightpoly.p_gn(3, 2, cache=tightpoly.PolyCache())
        assert intersection._memo
        assert intersection._values == {}

    def test_tau_rows_are_the_correlators(self, tmp_path, monkeypatch):
        monkeypatch.setattr(intersection, "_memo", {})
        monkeypatch.setattr(intersection, "_values", {})
        ctx = tightpoly.PolyCache()
        for g, n in [(4, 0), (3, 2), (2, 3)]:
            tightpoly.p_gn(g, n, cache=ctx)
        path = tmp_path / "tau.twp"
        assert intersection._memo
        assert intersection.save_tau(path) == len(intersection._memo)
        saved = dict(intersection._memo)
        _meta, rows = twpcache.read_twp(path, "tau")
        assert [(g, tuple(d)) for g, d, _ in rows] == sorted(saved)
        for g, d, s in rows:
            assert s == rat_to_str(intersection_number(g, d))
        monkeypatch.setattr(intersection, "_memo", {})
        monkeypatch.setattr(intersection, "_values", {})
        assert intersection.load_tau(path) == len(saved)
        assert intersection._memo == saved


class TestSubstM:
    def test_lifts_agree_and_ell_selects_one_group(self):
        """P_{1,2} at mu = 0 read through every lift the package uses."""
        poly = tightpoly.p_gn(1, 2).poly
        m_vals = verify._mu0_m_values(poly.n_m)
        qs = list(poly.terms.values())
        series = poly.subst_m(m_vals, [MuSeries([q]) for q in qs])
        full = {k: v.coeff(0) for k, v in series.items()}
        assert all(v.order == 0 for v in series.values())
        numeric = poly.subst_m_mpf([v.eval(0, PREC) for v in m_vals],
                                   [to_mpf(q, PREC) for q in qs], PREC)
        assert numeric.keys() == full.keys()
        with mp.workprec(PREC):
            for k, v in full.items():
                assert abs(mp.make_mpf(numeric[k][0]) / v.eval(PREC) - 1) < \
                    mpmath.mpf(2) ** -100
        for k in full:
            part = poly.ell_slice(k)
            assert part.subst_m(m_vals, [MuSeries([q]) for q in
                                         part.terms.values()]) == \
                {k: series[k]}


class TestDiagnostics:
    def setup_method(self):
        muc = moments.mu_critical(PREC)
        self.frame3 = moments.cached_frame(muc / 3, 9, PREC)

    def test_alpha_deriv_empty_pvec_is_poly_value(self):
        cell = tightpoly.p_gn(2, 0)
        fr = moments.cached_frame(self.frame3.mu, cell.d, PREC)
        a = tightpoly.alpha_deriv(2, 0, (), fr)
        direct, _, _ = eval_ell_groups(
            boltzmann.cell_groups(2, 0, fr.mu, PREC)[1], [], PREC)
        assert a == direct

    def test_alpha_deriv_reads_ratios_at_frame_precision(self):
        # the ratios M_k/M_0 are formed at the frame's 113 bits, not at the
        # caller's mp.prec
        cell = tightpoly.p_gn(2, 0)
        fr = self.frame3
        with mp.workprec(PREC):
            m0 = fr.moments[0]
            ratios = [mk / m0 for mk in fr.moments[1:cell.d + 1]]
            qs = cell.poly.terms.values()
            want = cell.poly.subst_m(ratios,
                                     [to_mpf(q, PREC) for q in qs])[()]
        with mp.workprec(53):
            got = tightpoly.alpha_deriv(2, 0, (), fr)
        assert got == want

    def test_alpha_deriv_zero_beyond_degree(self):
        cell = tightpoly.p_gn(2, 0)
        fr = moments.cached_frame(self.frame3.mu, cell.d, PREC)
        assert tightpoly.alpha_deriv(2, 0, (4,), fr) == 0
        assert tightpoly.alpha_deriv(2, 0, (2, 2), fr) == 0

    def test_mixed_partials_commute_exactly(self):
        poly = tightpoly.p_gn(3, 1).poly
        a = poly.dm(1).dm(2)
        b = poly.dm(2).dm(1)
        assert a == b

    def test_phi_definitional_ratio(self):
        g = 3
        cell = tightpoly.p_gn(g, 0)
        fr = moments.cached_frame(self.frame3.mu, cell.d, PREC)
        with mp.workprec(PREC):
            ratio = -fr.moments[1] / fr.moments[0]
            for n in (1, 2):
                lhs = tightpoly.phi(g, n, (1,), fr)
                rhs = tightpoly.phi(g, 0, (1,), fr) * (ratio * 5 * g) ** n
                assert abs(lhs / rhs - 1) < mpmath.mpf(2) ** -90

    def test_phi_sign_and_flagged_zero(self):
        fr = self.frame3
        assert tightpoly.phi(2, 0, (1,), fr) < 0
        assert tightpoly.phi(2, 0, (4,), fr) == 0
        with pytest.raises(DomainError):
            tightpoly.phi(2, 0, (0,), fr)

    def test_phi_example_genus_two_at_mu_zero(self):
        # phi(2, n=0, p=()) at mu=0 is <tau_2^3>_2 (2 pi^2)^3 / 3!
        fr = moments.cached_frame(0, 3, PREC)
        with mp.workprec(PREC):
            p2 = mp.pi ** 2
            corr = intersection_number(2, (2, 2, 2))
            want = mpmath.mpf(int(corr.numerator)) / int(corr.denominator) \
                * (2 * p2) ** 3 / 6
            got = tightpoly.phi(2, 0, (), fr)
            assert abs(got / want - 1) < mpmath.mpf(2) ** -90

    def test_alpha_coeff_zero_qvec_equals_alpha_deriv(self):
        g = 2
        cell = tightpoly.p_gn(g, 1)
        fr = moments.cached_frame(self.frame3.mu, cell.d, PREC)
        a = tightpoly.alpha_coeff(g, 1, (1,), (0,), fr)
        b = tightpoly.alpha_deriv(g, 1, (1,), fr)
        assert a == b

    def test_alpha_coeff_exact_identity_torus(self):
        # scaled P_{1,1} gives alpha_{1,1,(),(1)} = alpha_{1,1,()} / 6
        fr = moments.cached_frame(self.frame3.mu, 1, PREC)
        a = tightpoly.alpha_coeff(1, 1, (), (1,), fr)
        b = tightpoly.alpha_deriv(1, 1, (), fr)
        with mp.workprec(PREC):
            assert abs(a / (b / 6) - 1) < mpmath.mpf(2) ** -100

    def test_alpha_coeff_validations(self):
        fr = self.frame3
        with pytest.raises(DomainError):
            tightpoly.alpha_coeff(2, 1, (), (0, 0), fr)
        with pytest.raises(DomainError):
            tightpoly.alpha_coeff(2, 1, (), (-1,), fr)

    def test_alpha_over_phi_mu_trend(self):
        muc = moments.mu_critical(PREC)
        g = 3
        cell = tightpoly.p_gn(g, 0)
        gaps = []
        for j in (2, 3, 4):
            fr = moments.cached_frame(muc * (1 - mpmath.mpf(10) ** -j),
                                      cell.d, PREC)
            a = tightpoly.alpha_deriv(g, 0, (1,), fr)
            ph = tightpoly.phi(g, 0, (1,), fr)
            gaps.append(abs(float(a / ph) - 1))
        assert gaps[2] < gaps[1] < gaps[0]

    def test_frame_with_insufficient_moments_rejected(self):
        fr = moments.cached_frame(self.frame3.mu, 1, PREC)
        with pytest.raises(DomainError):
            tightpoly.alpha_deriv(2, 0, (), fr)


def _keys(cols, width):
    """The exponent keys of a column payload, as tuples."""
    b = bytes.fromhex(cols[1])
    return [tuple(b[i:i + width]) for i in range(0, len(b), width)]


def _cols(coeffs, keys, index):
    """A column payload with its keys column encoded from ``keys``."""
    return [coeffs, bytes(e for k in keys for e in k).hex(), index]


class TestStore:
    def test_round_trip(self, poly_cache):
        cell = tightpoly.p_gn(1, 2)
        poly_cache.store(cell)
        back = poly_cache.load(1, 2)
        assert back.poly == cell.poly
        assert (back.genus, back.boundaries) == (1, 2)

    def test_absent_is_none(self, poly_cache):
        assert poly_cache.load(4, 4) is None

    def test_truncated_file_is_checksum_error(self, poly_cache):
        cell = tightpoly.p_gn(1, 2)
        poly_cache.store(cell)
        path = poly_cache._cell_path(1, 2)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(CacheError):
            poly_cache.load(1, 2)

    def test_version_mismatch_rejected(self, poly_cache):
        cell = tightpoly.p_gn(1, 2)
        poly_cache.store(cell)
        path = poly_cache._cell_path(1, 2)
        blob = path.read_bytes()
        stale = blob.replace(f"TWPCACHE {twpcache.VERSION} ".encode(),
                             b"TWPCACHE v9 ", 1)
        assert stale != blob
        path.write_bytes(stale)
        with pytest.raises(CacheError, match="cache version v9"):
            poly_cache.load(1, 2)

    def test_loaded_cell_shares_equal_coefficients(self, poly_cache):
        cell = tightpoly.p_gn(2, 2)
        poly_cache.store(cell)
        back = poly_cache.load(2, 2)
        assert back.poly == cell.poly
        assert list(back.poly.terms) == list(cell.poly.terms)
        qs = list(back.poly.terms.values())
        assert len({id(q) for q in qs}) == len(set(qs)) < len(qs)

    @pytest.mark.parametrize("g, n", [(g, 0) for g in range(2, 8)]
                             + [(2, n) for n in range(1, 7)]
                             + [(3, n) for n in range(1, 5)]
                             + [(g, n) for g in (4, 5) for n in range(1, 4)]
                             + [(6, 1), (6, 2)])
    def test_columns_round_trip_keeps_term_order(self, g, n):
        poly = tightpoly.p_gn(g, n).poly
        cols = poly.to_columns()
        assert len(cols[0]) == len(set(cols[0])) == len(set(
            poly.terms.values()))
        back = TightPoly.from_columns(poly.n_ell, poly.n_m, cols)
        assert back == poly
        assert list(back.terms) == list(poly.terms)
        qs = list(back.terms.values())
        assert len({id(q) for q in qs}) == len(set(qs))

    def test_exponent_above_255_is_refused_before_writing(self,
                                                          poly_cache):
        cell = tightpoly.PolyCell(1, 2, TightPoly(2, 1, {(256, 0, 0): 1}))
        with pytest.raises(ShapeError, match="above 255"):
            poly_cache.store(cell)
        assert not poly_cache.root.exists()

    @pytest.mark.parametrize("tamper, match", [
        (lambda c, k: _cols(c[0], k[1:], c[2][1:]), "has 6 terms, expected 7"),
        (lambda c, k: _cols(c[0], k + k[:1], c[2] + c[2][:1]),
         "repeated exponent key"),
        (lambda c, k: _cols(c[0], [e[:2] + (0,) + e[2:] for e in k], c[2]),
         "35 key bytes for 7 terms"),
        (lambda c, k: _cols(c[0], [e[:-1] for e in k], c[2]),
         "21 key bytes for 7 terms"),
        (lambda c, k: [c[0], c[1], [-1] + c[2][1:]], "coefficient index"),
        (lambda c, k: [c[0], c[1], [0.0] + c[2][1:]], "coefficient index"),
        (lambda c, k: [c[0], c[1], [True] + c[2][1:]], "coefficient index"),
        (lambda c, k: [c[0], c[1], [len(c[0])] + c[2][1:]],
         "coefficient index"),
        (lambda c, k: [["oops"] + c[0][1:], c[1], c[2]], "is not 'num/den'"),
        (lambda c, k: [["1/0"] + c[0][1:], c[1], c[2]], "zero or has a"),
        (lambda c, k: [["0/1"] + c[0][1:], c[1], c[2]], "zero or has a"),
        (lambda c, k: [[3] + c[0][1:], c[1], c[2]], "is not 'num/den'"),
        (lambda c, k: [c[0], c[1], c[2][:-1]], "28 key bytes for 6 terms"),
        (lambda c, k: c[:2], "not enough values to unpack"),
        (lambda c, k: [c[0], "zz" + c[1][2:], c[2]], "non-hexadecimal"),
        (lambda c, k: [c[0], c[1][:-1], c[2]], "non-hexadecimal"),
        (lambda c, k: tightpoly.p_gn(1, 2).poly.to_obj(),
         "too many values to unpack"),
    ], ids=["dropped-row", "duplicate-key", "wide-ell", "narrow-m",
            "negative-index", "float-index", "bool-index",
            "index-out-of-range", "unparsable-coefficient",
            "zero-denominator", "zero-coefficient", "int-coefficient",
            "short-row", "short-payload", "non-hex-keys", "odd-length-keys",
            "not-three-columns"])
    def test_checksum_valid_bad_cell_is_cache_error(self, poly_cache,
                                                    tamper, match):
        cell = tightpoly.p_gn(1, 2)
        cols = cell.poly.to_columns()
        payload = tamper(cols, _keys(cols, 2 + cell.d))
        twpcache.write_twp(poly_cache._cell_path(1, 2), "poly",
                           [1, 2, cell.d], payload)
        with pytest.raises(CacheError, match=match):
            poly_cache.load(1, 2)

    def test_tau_segment_round_trip(self, poly_cache, monkeypatch):
        monkeypatch.setattr(intersection, "_memo", {})
        monkeypatch.setattr(intersection, "_values", {})
        intersection_number(2, (4,))
        saved = dict(intersection._memo)
        assert poly_cache.save_tau() == len(saved) > 1
        monkeypatch.setattr(intersection, "_memo", {})
        monkeypatch.setattr(intersection, "_values", {})
        assert poly_cache.load_tau() == len(saved)
        assert intersection._memo == saved

    @pytest.mark.parametrize("row", [
        [1, [1], "1/48"],  # 1/48 * 2^3 * 3!! is not an integer
        [2, [4], "1/1"],   # disagrees with <tau_4>_2 = 1/1152
        [0, [0, 0], "1/1"],
        [2, [1], "1/1"],
        [1, [1], "one"],
        [0, [0, 0, 0], 1],
        [0, [0, 0, 0], "1.0"],
        [0, [0, 0, 0], "0/1"],
    ], ids=["not-scaled-integer", "conflict", "unstable", "dimension",
            "malformed", "int-value", "decimal-value", "zero-value"])
    def test_bad_tau_row_is_cache_error(self, poly_cache, row):
        intersection_number(2, (4,))
        twpcache.write_twp(poly_cache.tau_path(), "tau", [1], [row])
        with pytest.raises(CacheError):
            poly_cache.load_tau()
        assert intersection_number(1, (1,)) == Rational(1, 24)
        assert intersection_number(2, (4,)) == Rational(1, 1152)

    def test_build_consults_disk_cache(self, poly_cache, monkeypatch):
        cell = tightpoly.p_gn(1, 3)
        poly_cache.store(cell)

        def refuse(*args):
            raise AssertionError("built a stored cell")

        monkeypatch.setattr(tightpoly, "_closed_form", refuse)
        again = tightpoly.p_gn(1, 3, cache=poly_cache)
        assert again.poly == cell.poly
