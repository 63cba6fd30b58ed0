"""The tight-volume polynomials P_{g,n} and their diagnostics.

``p_gn`` builds every admissible P_{g,n}(L, m) from one closed form
(Budd and Zonneveld, 2023), with ell_i = L_i^2 and D = 3g - 3 + n:

    P_{g,n} = sum <prod_i tau_{d_i} prod_k tau_{k+1}^{a_k}>_g
              prod_i ell_i^{d_i} / (2^{d_i} d_i!) prod_k (-m_k)^{a_k} / a_k!

over d in N^n and a >= 0 with sum d_i + sum k a_k = D.  The correlator
sees only the multiset of the d_i, so one is computed per sorted
ell-block.  The paper's n-recursion is a check in :mod:`tightwp.verify`.

The module also exposes the rescaled-derivative diagnostics used to
witness the large-genus concentration results: phi (the closed-form
target built from a single correlator), alpha_deriv (exact m-derivatives
of P_{g,n} evaluated at the moment vector) and alpha_coeff (coefficients
in the sinh-normalized boundary variables).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import mpmath
from mpmath import mp

from tightwp import cache as twpcache
from tightwp.errors import BudgetError, CacheError, DomainError, ShapeError
from tightwp.intersection import (_scale, dfact, load_tau, save_tau,
                                   scaled_value, tau2_correlator)
from tightwp.ring import Rational, TightPoly, mpf_list, to_mpf

DEFAULT_BUDGET = 5_000_000


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
    """A built polynomial P_{g,n} with its shape metadata.

    ``groups``, ``lifts`` and ``volumes`` hold values derived from
    ``poly`` and are filled by their readers: ``boltzmann.cell_groups``
    keeps the kernel's ell-groups per (exact mu, prec) and the
    coefficients as mpf per prec (one list aligned with ``poly.terms``),
    ``moments.volume_extract`` the exact volumes.  They live and die with
    the cell, so a replaced or dropped cell never serves them.
    """

    genus: int
    boundaries: int
    poly: TightPoly
    groups: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)
    lifts: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)
    volumes: list = field(default_factory=list, init=False, repr=False,
                          compare=False)

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


@functools.cache
def term_count(g: int, n: int) -> int:
    """Number of monomials of P_{g,n}: graded_count(3g-3+n, n)."""
    return graded_count(3 * g - 3 + n, n)


def graded_count(d: int, n: int) -> int:
    """Number of monomials of graded degree d in ell_1..ell_n, m_1..m_d,
    which is sum_j C(j+n-1, n-1) p(d-j): the x^d coefficient of
    prod_i 1/(1-x) prod_k 1/(1-x^k), one factor per variable; 0 for
    d < 0.  With n = 0 it counts the ell = 0 slice of a cell."""
    if d < 0:
        return 0
    out = [1] + [0] * d
    for weight in [1] * n + list(range(1, d + 1)):
        for k in range(weight, d + 1):
            out[k] += out[k - weight]
    return out[d]


def compositions(total: int, mins: Sequence[int]):
    """Tuples c of len(mins) ints with c[i] >= mins[i] and sum total, in
    lex order."""
    if len(mins) <= 1:  # the last entry takes the rest; none sums to 0
        if (total >= mins[0]) if mins else total == 0:
            yield (total,) * len(mins)
        return
    for first in range(mins[0], total - sum(mins[1:]) + 1):
        for rest in compositions(total - first, mins[1:]):
            yield (first,) + rest


def _closed_form(g: int, n: int, count: int) -> TightPoly:
    """P_{g,n} as the correlator sum of the module docstring, one
    correlator per (m-key, sorted ell-block), terms in canonical order:
    by m-key, then by ell-key.

    Each coefficient is one Rational(X, den) of the memo's int
    X = <tau>_g 2^c(g) prod (2 t + 1)!! over all its tau indices t, so
    den is that scale times the closed form's denominator: an int per
    ell-block times an int per m-key, each built once per cell."""
    d = 3 * g - 3 + n
    # ells[j]: the ell-keys of weight j in lex order, one boundary at a time
    ells = [[()]] + [[] for _ in range(d)]
    for _ in range(n):
        ells = [[(a,) + c for a in range(j + 1) for c in ells[j - a]]
                for j in range(d + 1)]
    # blocks[j]: the distinct sorted ell-blocks of weight j, each with its
    # 2^j prod d_i! (2 d_i + 1)!!; which[j]: the block of each ell-key
    per_tau = [math.factorial(t) * dfact(2 * t + 1) for t in range(d + 1)]
    blocks, which = [], []
    for keys in ells:
        at = {}
        which.append([at.setdefault(tuple(sorted(c, reverse=True)), len(at))
                      for c in keys])
        blocks.append([(taus, math.prod(map(per_tau.__getitem__, taus))
                        << sum(taus)) for taus in at])
    # rows[r]: the m-keys (a_k, ..., a_d) of weight r, or of weight at most
    # r when n > 0 (n = 0 leaves only weight d), in lex order, each with
    # its weight, its tau indices k+1 and 2^c(g) prod (-1)^a_k a_k!
    # (2k+3)!!^a_k; built from m_d down to m_1, so rows[-1] lists the
    # m-keys of the cell in term order
    signed_fact = [(-1) ** a * math.factorial(a) for a in range(d + 1)]
    rows = [[((), 0, (), _scale(g, ()))] if n or r == 0 else []
            for r in range(d + 1)]
    for k in range(d, 0, -1):
        fk = dfact(2 * k + 3)
        per_a = [f * fk ** a for a, f in enumerate(signed_fact[:d // k + 1])]
        rows = [[((a,) + key, w + k * a, taus + (k + 1,) * a,
                  den * per_a[a])
                 for a in range(r // k + 1)
                 for key, w, taus, den in rows[r - k * a]]
                for r in (range(d + 1) if k > 1 else (d,))]
    terms = {}
    for m_key, weight, m_taus, m_den in rows[-1]:
        qs = [Rational(scaled_value((g, tuple(sorted(taus + m_taus,
                                                     reverse=True)))),
                       m_den * den)
              for taus, den in blocks[d - weight]]
        terms.update(zip([c + m_key for c in ells[d - weight]],
                         map(qs.__getitem__, which[d - weight])))
    # psi-class correlators of stable, dimension-correct keys are positive,
    # so every key gets a nonzero coefficient and the cell is dense
    if len(terms) != count:
        raise AssertionError(f"P_{{{g},{n}}} has {len(terms)} terms, "
                             f"expected {count}")
    return TightPoly._raw(n, d, terms)


def p_gn(g: int, n: int, cache: "PolyCache | None" = None,
         budget: int | None = None) -> PolyCell:
    """Build (or fetch) P_{g,n} in the context cache, DEFAULT_CACHE if None.

    Inadmissible (g,n) raises DomainError; a cell of more than `budget`
    monomials raises BudgetError before the context's cells, its store or
    the correlators are consulted.  The budget defaults to the context's.
    """
    if not admissible(g, n):
        raise DomainError(f"inadmissible (g,n) = ({g},{n})")
    if cache is None:
        cache = DEFAULT_CACHE
    if budget is None:
        budget = cache.budget
    count = term_count(g, n)
    if count > budget:
        raise BudgetError(g, n, count, budget)
    cell = cache.cells.get((g, n))
    if cell is None:
        cell = cache.load(g, n)
        if cell is None:
            cell = PolyCell(g, n, _closed_form(g, n, count))
            cache.store(cell)
        cache.cells[(g, n)] = cell
    return cell


# -- validation --------------------------------------------------------------

def validate_cell(cell: PolyCell) -> bool:
    """True iff the cell is boundary-symmetric and graded-homogeneous.

    Symmetry is checked under the two generators of the symmetric group
    on the boundaries, the swap of boundaries 1 and 2 and the cycle of
    all n (the swap alone when n = 2, nothing when n <= 1): each term's
    image must be a term with the same coefficient.  A permutation that
    maps the keys into themselves maps them onto themselves, so
    invariance under both is invariance under every permutation.
    Homogeneity compares the graded degree of every monomial with
    3g-3+n.
    """
    return not validate_cell_report(cell)


def validate_cell_report(cell: PolyCell) -> list:
    """Empty list if valid, else a list of human-readable failures: the
    generator a symmetry check failed under, and the first monomial of
    the wrong graded degree."""
    problems = []
    poly = cell.poly
    terms = poly.terms
    n, rest = poly.n_ell, range(poly.n_ell, poly.n_ell + poly.n_m)
    generators = []
    if n > 1:
        generators.append(("swapping boundaries 1 and 2",
                           (1, 0, *range(2, n))))
    if n > 2:
        generators.append(("cycling the boundaries", (*range(1, n), 0)))
    coeffs = list(terms.values())
    for name, order in generators:
        image = operator.itemgetter(*order, *rest)
        if list(map(terms.get, map(image, terms))) != coeffs:
            problems.append(f"not symmetric under {name}")
    d = cell.d
    weights = (1,) * n + tuple(range(1, poly.n_m + 1))
    for key in terms:
        grade = sum(map(operator.mul, key, weights))
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


def alpha_deriv(g: int, n: int, pvec: Sequence[int], frame,
                cache=None) -> mpmath.mpf:
    """d P_{g,n} / d m_p evaluated at L = 0 and the moment vector."""
    return alpha_coeff(g, n, pvec, (0,) * n, frame, cache=cache)


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
    if frame.d_max < cell.d:
        raise DomainError(
            f"frame holds moments up to {frame.d_max}, need {cell.d}")
    prec = frame.precision
    m_vals = frame.m_ratios()[:cell.d]
    part = poly.ell_slice(qvec)
    got = part.subst_m_mpf(m_vals, mpf_list(part.terms.values(), prec), prec)
    with mp.workprec(prec):
        total = mp.make_mpf(got[qvec][0]) if qvec in got else mpmath.mpf(0)
        scale = (-m_vals[0] / 3) ** sum(qvec)
        return +(total * scale)


# -- run context and persistent store ----------------------------------------

class PolyCache:
    """One run's context: the cell budget p_gn applies, the disk store
    under root (poly/g{g}_n{n}.twp and the tau segment; nothing is read
    or written without a root), and what the run builds under them: the
    `cells` by (g, n), each holding its groups, lifts and volumes, and the
    cusp `pmfs` by (g, mu, prec).  No other context sees them.  The tau
    memo, moment frames and functools caches stay module-level: each is a
    pure function of an exact key that no budget or store changes."""

    def __init__(self, root=None, budget: int = DEFAULT_BUDGET):
        self.root = Path(root) if root is not None else None
        self.budget = budget
        self.cells: dict = {}
        self.pmfs: dict = {}

    def _cell_path(self, g: int, n: int) -> Path:
        return self.root / "poly" / f"g{g}_n{n}.twp"

    def store(self, cell: PolyCell) -> None:
        if self.root is None:
            return
        twpcache.write_twp(self._cell_path(cell.genus, cell.boundaries),
                           "poly", [cell.genus, cell.boundaries, cell.d],
                           cell.poly.to_columns())

    def load(self, g: int, n: int) -> PolyCell | None:
        if self.root is None:
            return None
        path = self._cell_path(g, n)
        got = twpcache.read_twp(path, "poly")
        if got is None:
            return None
        meta, obj = got
        try:
            if [int(x) for x in meta[:3]] != [g, n, 3 * g - 3 + n]:
                raise ValueError(f"metadata {meta}")
            poly = TightPoly.from_columns(n, 3 * g - 3 + n, obj)
        except (ShapeError, TypeError, ValueError) as exc:
            raise CacheError(f"{path}: bad cell for ({g},{n}) ({exc})") \
                from exc
        # every cell is dense (see _closed_form)
        if len(poly) != term_count(g, n):
            raise CacheError(f"{path}: P_{{{g},{n}}} has {len(poly)} terms, "
                             f"expected {term_count(g, n)}")
        return PolyCell(genus=g, boundaries=n, poly=poly)

    # tau memo segment ------------------------------------------------

    def tau_path(self) -> Path:
        return self.root / "tau.twp"

    def save_tau(self) -> int:
        """Persist the intersection-number memo; returns entry count."""
        return save_tau(self.tau_path()) if self.root is not None else 0

    def load_tau(self) -> int:
        """Merge a persisted tau segment into the memo; returns its count
        of distinct keys."""
        return load_tau(self.tau_path()) if self.root is not None else 0


DEFAULT_CACHE = PolyCache()
_cells = DEFAULT_CACHE.cells  # perfbench checks it is empty at start
