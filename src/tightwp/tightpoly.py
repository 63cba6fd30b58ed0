"""The tight-volume polynomials P_{g,n} and their diagnostics.

``p_gn`` builds P_{g,n}(L, m) bottom-up: the base chain is P_{0,3} = 1,
P_{1,1} = (1/24)(-m_1 + ell_1/2) and the intersection-number sum P_{g,0}
for g >= 2; each n-step applies the three-part recursion (derivative
terms, the (2g-3+n)(-m_1 + ell_1/2) term, and the boundary integrals).
The raw output of a step is provably symmetric in the boundaries, so the
builder asserts monomial-wise graded homogeneity and leaves the full
symmetry check to ``validate_cell``.

The module also exposes the rescaled-derivative diagnostics used to
witness the large-genus concentration results: phi (the closed-form
target built from a single correlator), alpha_deriv (exact m-derivatives
of P_{g,n} evaluated at the moment vector) and alpha_coeff (coefficients
in the sinh-normalized boundary variables).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import mpmath
from mpmath import mp

from tightwp import cache as twpcache
from tightwp.errors import BudgetError, CacheError, DomainError
from tightwp.intersection import (intersection_number, load_tau, save_tau,
                                   tau2_correlator)
from tightwp.ring import Rational, TightPoly, to_mpf

DEFAULT_BUDGET = 5_000_000

_R1 = Rational(1)


def admissible(g: int, n: int) -> bool:
    """(g,n) for which P_{g,n} exists: n>=3 if g=0, n>=1 if g=1, else n>=0."""
    if g < 0 or n < 0:
        return False
    if g == 0:
        return n >= 3
    if g == 1:
        return n >= 1
    return True


@dataclass(frozen=True)
class PolyCell:
    """A built polynomial P_{g,n} with its shape metadata."""

    genus: int
    boundaries: int
    poly: TightPoly

    @property
    def d(self) -> int:
        """Top moment index D = 3g - 3 + n (also the graded degree)."""
        return 3 * self.genus - 3 + self.boundaries


def normalize_pvec(pvec: Sequence[int]) -> tuple:
    """Validate a differentiation multi-index (entries >= 1)."""
    out = tuple(int(p) for p in pvec)
    if any(p < 1 for p in out):
        raise DomainError(f"pvec entries must be >= 1, got {out}")
    return out


def partitions(n: int, max_part: int | None = None):
    """Yield partitions of n as non-increasing tuples of parts."""
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


_cells: dict = {}


def clear_memory_cache():
    _cells.clear()


def p_g0(g: int, budget: int = DEFAULT_BUDGET) -> PolyCell:
    """P_{g,0} for g >= 2 from the intersection-number expansion.

    Sum over d_2, d_3, ... >= 0 with sum (k-1) d_k = 3g-3 of
    <tau_2^{d_2} tau_3^{d_3} ...>_g  prod (-m_{k-1})^{d_k} / d_k!.
    """
    if g < 2:
        raise DomainError(f"p_g0 needs g >= 2, got {g}")
    d = 3 * g - 3
    terms = {}
    for part in partitions(d):
        mult = {}
        for j in part:
            mult[j] = mult.get(j, 0) + 1
        # part j (exponent of m_j) corresponds to a tau_{j+1} insertion
        taus = []
        for j, dj in mult.items():
            taus += [j + 1] * dj
        corr = intersection_number(g, taus)
        if not corr:
            continue
        coeff = corr
        key = [0] * d
        for j, dj in mult.items():
            key[j - 1] = dj
            sign = -1 if dj % 2 else 1
            fact = 1
            for t in range(2, dj + 1):
                fact *= t
            coeff = coeff * Rational(sign, fact)
        terms[tuple(key)] = coeff
    poly = TightPoly(0, d, terms)
    if len(poly) > budget:
        raise BudgetError(g, 0, len(poly), budget)
    return PolyCell(genus=g, boundaries=0, poly=poly)


def _assert_graded(cell: PolyCell):
    grades = cell.poly.grades()
    if grades and grades != {cell.d}:
        raise AssertionError(
            f"P_{{{cell.genus},{cell.boundaries}}} is not graded of degree "
            f"{cell.d}: found grades {sorted(grades)}")


def _recursion_step(g: int, n: int, prev: PolyCell,
                    budget: int) -> PolyCell:
    """One application of the n-recursion: P_{g,n} from P_{g,n-1}."""
    d = 3 * g - 3 + n
    # previous cell lifted: its boundaries become positions 2..n
    prev_l = prev.poly.embed(n, d, tuple(range(2, n + 1)))
    ell1 = TightPoly.ell_var(n, d, 1)
    m1 = TightPoly.m_var(n, d, 1)

    out = TightPoly.zero(n, d)
    # derivative terms: sum over p of
    #   (m_{p+1} - ell_1^{p+1}/(2^{p+1}(p+1)!) - m_1 m_p + ell_1 m_p / 2)
    #   * dP_{g,n-1}/dm_p
    fact = 1
    for p in range(1, d):
        fact *= (p + 1)  # running (p+1)!
        dprev = prev_l.dm(p)
        if dprev.is_zero:
            continue
        m_p = TightPoly.m_var(n, d, p)
        m_p1 = TightPoly.m_var(n, d, p + 1)
        ell_pow = TightPoly._raw(
            n, d, {(p + 1,) + (0,) * (n - 1 + d):
                   Rational(-1, 2 ** (p + 1) * fact)})
        factor = m_p1 + ell_pow - m1 * m_p + ell1 * m_p * Rational(1, 2)
        out = out + factor * dprev
    # volume term
    out = out + (2 * g - 3 + n) * ((-m1) + ell1 * Rational(1, 2)) * prev_l
    # boundary integrals: previous first boundary becomes x integrated to L_i
    for i in range(2, n + 1):
        rest = [j for j in range(2, n + 1) if j != i]
        placed = prev.poly.embed(n, d, tuple([i] + rest))
        out = out + placed.integrate_ell(i)
    if len(out) > budget:
        raise BudgetError(g, n, len(out), budget)
    return PolyCell(genus=g, boundaries=n, poly=out)


def p_gn(g: int, n: int, cache: "PolyCache | None" = None,
         budget: int = DEFAULT_BUDGET) -> PolyCell:
    """Build (or fetch) P_{g,n}; inadmissible (g,n) raises DomainError."""
    if not admissible(g, n):
        raise DomainError(f"inadmissible (g,n) = ({g},{n})")
    cell = _cells.get((g, n))
    if cell is not None:
        return cell
    if cache is not None:
        cell = cache.load(g, n)
        if cell is not None:
            _cells[(g, n)] = cell
            return cell

    if g == 0 and n == 3:
        cell = PolyCell(0, 3, TightPoly.const(3, 0, 1))
    elif g == 1 and n == 1:
        m1 = TightPoly.m_var(1, 1, 1)
        ell1 = TightPoly.ell_var(1, 1, 1)
        cell = PolyCell(1, 1,
                        ((-m1) + ell1 * Rational(1, 2)) * Rational(1, 24))
    elif n == 0:
        cell = p_g0(g, budget=budget)
    else:
        prev = p_gn(g, n - 1, cache=cache, budget=budget)
        cell = _recursion_step(g, n, prev, budget)
    _assert_graded(cell)
    _cells[(g, n)] = cell
    if cache is not None:
        cache.store(cell)
    return cell


# -- validation --------------------------------------------------------------

def validate_cell(cell: PolyCell) -> bool:
    """True iff the cell is boundary-symmetric and graded-homogeneous.

    Symmetry is checked on adjacent transpositions (which generate the
    full symmetric group); homogeneity compares the graded degree of
    every monomial with 3g-3+n.
    """
    return not validate_cell_report(cell)


def validate_cell_report(cell: PolyCell) -> list:
    """Empty list if valid, else a list of human-readable failures."""
    problems = []
    poly = cell.poly
    terms = poly.terms
    for i in range(1, poly.n_ell):
        # a swap is an involution, so compare each term with its image
        for key, q in terms.items():
            a, b = key[i - 1], key[i]
            if a != b and terms.get(key[:i - 1] + (b, a) + key[i + 1:]) != q:
                problems.append(f"not symmetric under swapping boundaries "
                                f"{i} and {i + 1}")
                break
    d = cell.d
    for key in terms:
        grade = poly.grade(key)
        if grade != d:
            problems.append(f"not homogeneous: monomial {key} has graded "
                            f"degree {grade} != {d}")
            break
    return problems


# -- diagnostics of the concentration estimates -------------------------------

def phi(g: int, n: int, pvec: Sequence[int], frame) -> mpmath.mpf:
    """Closed-form concentration target for alpha_{n,g,p}.

    (-1)^k <tau_{p_1+1}..tau_{p_k+1} tau_2^(3g-3-|p|)>_g
    (-M_1/M_0)^(3g-3+n-|p|) (5g)^n / (3g-3-|p|)!

    Returns exactly 0 when |p| > 3g - 3 (the correlator convention).
    """
    pvec = normalize_pvec(pvec)
    prec = frame.precision
    total = sum(pvec)
    if total > 3 * g - 3:
        return mpmath.mpf(0)
    corr = tau2_correlator(g, tuple(p + 1 for p in pvec))
    with mp.workprec(prec):
        k = len(pvec)
        ratio = -frame.moments[1] / frame.moments[0]
        val = to_mpf(corr, prec)
        val *= ratio ** (3 * g - 3 + n - total)
        val *= mpmath.mpf(5 * g) ** n
        val /= mpmath.factorial(3 * g - 3 - total)
        if k % 2:
            val = -val
        return +val


def _frame_m_values(frame, d: int):
    if frame.d_max < d:
        raise DomainError(
            f"frame holds moments up to {frame.d_max}, need {d}")
    return frame.m_ratios()[:d]


def alpha_deriv(g: int, n: int, pvec: Sequence[int], frame,
                cache=None) -> mpmath.mpf:
    """d P_{g,n} / d m_p evaluated at L = 0 and the moment vector."""
    pvec = normalize_pvec(pvec)
    if not admissible(g, n):
        raise DomainError(f"inadmissible (g,n) = ({g},{n})")
    cell = p_gn(g, n, cache=cache)
    if sum(pvec) > cell.d:
        return mpmath.mpf(0)
    poly = cell.poly
    for p in pvec:
        if p > cell.d:
            return mpmath.mpf(0)
        poly = poly.dm(p)
        if poly.is_zero:
            return mpmath.mpf(0)
    m_vals = _frame_m_values(frame, cell.d)
    return poly.eval([mpmath.mpf(0)] * n, m_vals, frame.precision)


def alpha_coeff(g: int, n: int, pvec: Sequence[int], qvec: Sequence[int],
                frame, cache=None) -> mpmath.mpf:
    """Coefficient of prod L_i^(2 q_i) in dP_{g,n}/dm_p at the
    sinh-normalized lengths sqrt(-m_1/3) L, evaluated at the moments.

    Exact bookkeeping: the ell_i-monomial with exponent q_i picks up a
    factor (-m_1/3)^(q_i) before evaluation.
    """
    pvec = normalize_pvec(pvec)
    qvec = tuple(int(q) for q in qvec)
    if len(qvec) != n:
        raise DomainError(f"qvec must have length n={n}")
    if any(q < 0 for q in qvec):
        raise DomainError("qvec entries must be >= 0")
    if not admissible(g, n):
        raise DomainError(f"inadmissible (g,n) = ({g},{n})")
    cell = p_gn(g, n, cache=cache)
    poly = cell.poly
    for p in pvec:
        if p > cell.d:
            return mpmath.mpf(0)
        poly = poly.dm(p)
        if poly.is_zero:
            return mpmath.mpf(0)
    prec = frame.precision
    m_vals = _frame_m_values(frame, cell.d)
    with mp.workprec(prec):
        total = mpmath.mpf(0)
        for key, q in poly.terms.items():
            if key[:n] != qvec:
                continue
            t = to_mpf(q, prec)
            for k_idx, e in enumerate(key[n:]):
                if e:
                    t *= m_vals[k_idx] ** e
            total += t
        scale = (-m_vals[0] / 3) ** sum(qvec)
        return +(total * scale)


# -- persistent store ----------------------------------------------------------

class PolyCache:
    """On-disk cell store: poly/g{g}_n{n}.twp plus the tau memo segment."""

    def __init__(self, root):
        self.root = Path(root)

    def _cell_path(self, g: int, n: int) -> Path:
        return self.root / "poly" / f"g{g}_n{n}.twp"

    def store(self, cell: PolyCell) -> None:
        write_obj = cell.poly.to_obj()
        write_twp = twpcache.write_twp
        write_twp(self._cell_path(cell.genus, cell.boundaries), "poly",
                  [cell.genus, cell.boundaries, cell.d], write_obj)

    def load(self, g: int, n: int) -> PolyCell | None:
        got = twpcache.read_twp(self._cell_path(g, n), "poly")
        if got is None:
            return None
        meta, obj = got
        if [int(x) for x in meta[:3]] != [g, n, 3 * g - 3 + n]:
            raise CacheError(
                f"cell file for ({g},{n}) carries metadata {meta}")
        poly = TightPoly.from_obj(n, 3 * g - 3 + n, obj)
        return PolyCell(genus=g, boundaries=n, poly=poly)

    # tau memo segment ------------------------------------------------

    def tau_path(self) -> Path:
        return self.root / "tau.twp"

    def save_tau(self) -> int:
        """Persist the intersection-number memo; returns entry count."""
        return save_tau(self.tau_path())

    def load_tau(self) -> int:
        """Merge a persisted tau segment into the memo; returns count."""
        return load_tau(self.tau_path())
