"""The raw-tuple numeric kernels against the mpf-object code they replaced.

The moment series (``moments._f``, ``moments._z_and_slope``), the
m-substitution (``TightPoly.subst_m_mpf``, read through
``boltzmann.cell_groups``) and the ell-evaluation
(``ring.eval_ell_groups``) run on mpmath.libmp tuples.  The object-based
versions below are kept as the reference: they make the same operations
in the same order through the mpf operators, so every output must be
``_mpf_``-identical, not merely close.
"""

import mpmath
import pytest
from mpmath import mp

from tightwp import boltzmann, moments, ring, spectrum, tightpoly
from tightwp.ring import Rational, TightPoly

CELLS = [(g, n) for g in range(2, 7) for n in range(3)]
PRECS = (53, 80, 113, 160)
D_MAX = 3 * 6 - 3 + 2


# -- reference: the object path --------------------------------------------

def ref_f(k, r, prec):
    with mp.workprec(prec + 16):
        c = -2 * mp.pi ** 2
        cr = c * r
        term = total = c ** k / mpmath.factorial(k)
        cutoff = mpmath.mpf(2) ** (-(prec + 8))
        m = 0
        while abs(term) > cutoff * (abs(total) + cutoff):
            m += 1
            term = term * cr / (m * (m + k))
            total += term
        return total


def ref_z_and_slope(r, mu, prec):
    with mp.workprec(prec + 16):
        cr = -2 * mp.pi ** 2 * r
        cutoff = mpmath.mpf(2) ** (-(prec + 8))
        p = q = f0 = s = mpmath.mpf(1)
        m = 0
        while (abs(p) > cutoff * (abs(f0) + cutoff)
               or abs(q) > cutoff * (abs(s) + cutoff)):
            m += 1
            p = p * cr / (m * m)
            q = p / (m + 1)
            f0 += p
            s += q
        val = r * s - mu
    with mp.workprec(prec):
        return +val, f0


def ref_mpf_list(qs, prec):
    mpf = mpmath.mpf
    with mp.workprec(prec):
        return [mpf(int(q.numerator)) / mpf(int(q.denominator)) for q in qs]


def _power(tab, e):
    while len(tab) <= e:
        tab.append(tab[-1] * tab[1])
    return tab[e]


def ref_subst_m(poly, m_values, coeffs):
    pows = [[None, v] for v in m_values]
    out = {}
    n = poly.n_ell
    for key, acc in zip(poly.terms, coeffs, strict=True):
        ell_key = key[:n]
        for k, e in enumerate(key[n:]):
            if e:
                acc = acc * _power(pows[k], e)
        cur = out.get(ell_key)
        out[ell_key] = acc if cur is None else cur + acc
    return out


def ref_eval_ell_groups(groups, ell_values, prec):
    with mp.workprec(prec):
        pows = [[None, mpmath.mpf(v)] for v in ell_values]
        total = abs_total = mpmath.mpf(0)
        for key, (val, mag) in groups.items():
            val, mag = mp.make_mpf(val), mp.make_mpf(mag)
            for i, e in enumerate(key):
                if e:
                    x = _power(pows[i], e)
                    val = val * x
                    mag = mag * abs(x)
            total = total + val
            abs_total = abs_total + mag
        cancelled = bool(abs_total) and \
            abs(total) < mpmath.mpf(ring.CANCEL_THRESHOLD) * abs_total
        return total, abs_total, cancelled


def ref_kernel(self, m_values, coeffs, prec):
    """The object path behind the kernel's interface, as raw tuples: two
    passes, a signed one and one over absolute values."""
    with mp.workprec(prec):
        m = [mpmath.mpf(v) for v in m_values]
        signed = ref_subst_m(self, m, coeffs)
        unsigned = ref_subst_m(self, [abs(v) for v in m], map(abs, coeffs))
    return {k: (v._mpf_, unsigned[k]._mpf_) for k, v in signed.items()}


def use_reference(monkeypatch):
    monkeypatch.setattr(moments, "_f", ref_f)
    monkeypatch.setattr(moments, "_z_and_slope", ref_z_and_slope)
    monkeypatch.setattr(TightPoly, "subst_m_mpf", ref_kernel)
    monkeypatch.setattr(boltzmann, "eval_ell_groups", ref_eval_ell_groups)


# -- helpers ------------------------------------------------------------------

def raw(x):
    """_mpf_ of every mpf in a nested tuple/dict/list, for equality."""
    if hasattr(x, "_mpf_"):
        return x._mpf_
    if isinstance(x, dict):
        return [(k, raw(v)) for k, v in x.items()]
    if isinstance(x, (tuple, list)):
        return tuple(raw(v) for v in x)
    return x


def frame_raw(fr):
    return (raw(fr.mu), raw(fr.r_value), raw(fr.moments), fr.precision)


def fresh_context(monkeypatch):
    """Empty the frame memo, and return a context whose cells share the
    polynomials built in the default context but hold no groups or
    lifts."""
    monkeypatch.setattr(moments, "_frame_cache", {})
    ctx = tightpoly.PolyCache()
    ctx.cells.update({k: tightpoly.PolyCell(c.genus, c.boundaries, c.poly)
                      for k, c in tightpoly.DEFAULT_CACHE.cells.items()})
    return ctx


@pytest.fixture(scope="module")
def built_cells():
    return {key: tightpoly.p_gn(*key) for key in CELLS}


def mus(prec):
    with mp.workprec(prec + 16):
        muc = moments.mu_critical(prec)
        return (mpmath.mpf(0), muc / 2, muc * (1 - mpmath.mpf(10) ** -5))


# -- the oracle ---------------------------------------------------------------

class TestSeries:
    @pytest.mark.parametrize("prec", PRECS)
    def test_f_and_z_on_the_bracket(self, prec):
        rmax = moments.r_max(prec)
        with mp.workprec(prec + 16):
            # F(r) = r f_1(r)/c, hence Z's sum, vanishes at r_F, where only
            # the stopping test on Z's terms keeps the loop going
            r_f = mpmath.besseljzero(1, 1) ** 2 / (8 * mp.pi ** 2)
            rs = [mpmath.mpf(0), rmax / 7, rmax / 2, rmax * 0.999, rmax,
                  r_f, 1]
        for r in rs + [0.25]:
            for k in (0, 1, 2, 9, D_MAX):
                assert raw(moments._f(k, r, prec)) == raw(ref_f(k, r, prec))
            for mu in (0, 0.01, mpmath.mpf(1) / 64):
                assert raw(moments._z_and_slope(r, mu, prec)) == \
                    raw(ref_z_and_slope(r, mu, prec))

    @pytest.mark.parametrize("prec", PRECS)
    def test_constants_and_frames(self, prec, monkeypatch):
        got = [moments.mu_critical.__wrapped__(prec)]
        got += [moments.make_frame(mu, D_MAX, prec) for mu in mus(prec)]
        monkeypatch.setattr(moments, "_frame_cache", {})
        use_reference(monkeypatch)
        want = [moments.mu_critical.__wrapped__(prec)]
        want += [moments.make_frame(mu, D_MAX, prec) for mu in mus(prec)]
        assert raw(got[0]) == raw(want[0])
        assert [frame_raw(f) for f in got[1:]] == \
            [frame_raw(f) for f in want[1:]]

    def test_mpf_list(self):
        qs = [Rational(1, 3), Rational(-7, 10 ** 40 + 1),
              Rational(2 ** 200 + 1), Rational(5),
              Rational(-(3 ** 90), 7 ** 50)]
        for prec in PRECS:
            assert raw(ring.mpf_list(qs, prec)) == raw(ref_mpf_list(qs, prec))


class TestRing:
    @pytest.mark.parametrize("prec", PRECS)
    def test_groups_and_evaluations_on_every_swept_cell(self, prec,
                                                         built_cells):
        lengths = {0: [()], 1: [(0,), (0.3,), (2.5,)],
                   2: [(0, 0), (0, 1.7), (1.1, 0.4), (3.0, 2.0)]}
        for mu in mus(prec):
            frame = moments.make_frame(mu, D_MAX, prec)
            for (g, n), cell in built_cells.items():
                m_vals = frame.m_ratios()[:cell.d]
                coeffs = ring.mpf_list(cell.poly.terms.values(), prec)
                got = cell.poly.subst_m_mpf(m_vals, coeffs, prec)
                want = ref_kernel(cell.poly, m_vals, coeffs, prec)
                assert got == want, (g, n, mu, prec)
                for L in lengths[n]:
                    with mp.workprec(prec):
                        ells = [mpmath.mpf(x) ** 2 for x in L]
                    assert raw(ring.eval_ell_groups(got, ells, prec)) == \
                        raw(ref_eval_ell_groups(want, ells, prec)), (g, n, L)

    def test_cancelling_case(self):
        # m_1 + 1 at m_1 = -1 + 1e-12, times (1 + ell): cancelled either way
        poly = TightPoly(1, 1, {(0, 1): Rational(1), (0, 0): Rational(1),
                                (1, 1): Rational(1), (1, 0): Rational(1)})
        for prec in PRECS:
            coeffs = ring.mpf_list(poly.terms.values(), prec)
            m_vals = [-1.0 + 1e-12]
            got = poly.subst_m_mpf(m_vals, coeffs, prec)
            want = ref_kernel(poly, m_vals, coeffs, prec)
            assert got == want
            for ell in ([0], [0.7], [-3.5]):
                a = ring.eval_ell_groups(got, ell, prec)
                b = ref_eval_ell_groups(want, ell, prec)
                assert raw(a) == raw(b)
                assert a[2] is True

    @pytest.mark.parametrize("prec", PRECS)
    def test_signed_kernel_is_the_one_pass_subst(self, prec, built_cells):
        # the signed sums of the one pass are the signed-only object subst
        frame = moments.make_frame(mus(prec)[2], D_MAX, prec)
        for cell in built_cells.values():
            m_vals = frame.m_ratios()[:cell.d]
            coeffs = ring.mpf_list(cell.poly.terms.values(), prec)
            with mp.workprec(prec):
                want = ref_subst_m(cell.poly, [mpmath.mpf(v) for v in m_vals],
                                   coeffs)
            assert {k: g for k, (g, _) in cell.poly.subst_m_mpf(
                m_vals, coeffs, prec).items()} == \
                {k: v._mpf_ for k, v in want.items()}


class TestEndToEnd:
    """Whole readers, new path against the reference path, each in a
    fresh context."""

    def _both(self, monkeypatch, thunk):
        got = raw(thunk(fresh_context(monkeypatch)))
        ctx = fresh_context(monkeypatch)
        use_reference(monkeypatch)
        want = raw(thunk(ctx))
        monkeypatch.undo()
        return got, want

    @pytest.mark.parametrize("prec", [53, 113])
    def test_expected_counts(self, prec, monkeypatch, built_cells):
        windows = spectrum.IntervalSet.make([(0.5, 1.5)])
        for g in (3, 4):
            for mu in mus(prec)[1:]:
                got, want = self._both(
                    monkeypatch, lambda ctx:
                    spectrum.expected_nonseparating_count(g, mu, windows,
                                                          prec, ctx))
                assert got == want, (g, mu)

    @pytest.mark.parametrize("prec", [80, 160])
    def test_boltzmann_readers(self, prec, monkeypatch, built_cells):
        mu = mus(prec)[2]

        def readers(ctx):
            return (boltzmann.t_value(3, 2, [0.4, 1.9], mu, prec, ctx),
                    boltzmann.concentration_ratio(4, mu, prec, ctx),
                    boltzmann.boundary_ratio(2, 2, [1.2, 0.4], mu, prec, ctx),
                    tightpoly.alpha_coeff(3, 1, (2,), (1,),
                                          moments.cached_frame(mu, 7, prec),
                                          cache=ctx))

        got, want = self._both(monkeypatch, readers)
        assert got == want


# -- no result depends on the ambient precision ---------------------------

class TestAmbientPrecision:
    READERS = {
        "t_value": lambda mu, ctx: boltzmann.t_value(4, 2, [0.7, 1.3], mu,
                                                     113, ctx),
        "cell_groups": lambda mu, ctx: boltzmann.cell_groups(3, 1, mu, 113,
                                                             ctx),
        "eval_ell_groups": lambda mu, ctx: ring.eval_ell_groups(
            boltzmann.cell_groups(3, 2, mu, 113, ctx)[1], [0.25, 4], 113),
        "make_frame": lambda mu, ctx: moments.make_frame(mu, 9, 113),
        "expected_count": lambda mu, ctx:
        spectrum.expected_nonseparating_count(
            4, mu, spectrum.IntervalSet.make([(0.5, 1.5)]), 113, ctx),
    }

    @pytest.mark.parametrize("name", list(READERS))
    def test_same_bits_at_53_and_300(self, name, monkeypatch):
        read = self.READERS[name]
        mu = 0.0316 * (1 - 1e-4)
        out = []
        for ambient in (53, 300):
            ctx = fresh_context(monkeypatch)
            with mp.workprec(ambient):
                got = read(mu, ctx)
                assert mp.prec == ambient
            if name == "make_frame":
                got = frame_raw(got)
            elif name == "cell_groups":
                got = (frame_raw(got[0]), got[1])
            out.append(raw(got))
        assert out[0] == out[1]
