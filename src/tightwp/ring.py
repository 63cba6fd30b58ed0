"""Exact arithmetic tower.

Four types, each immutable after construction and safe to share across
threads:

* ``Rational``     -- ``fractions.Fraction``: arbitrary-precision
                      fractions, always in lowest terms with a positive
                      denominator.
* ``MuSeries``     -- truncated power series in mu whose coefficients are
                      single powers of pi^2: one int numerator per
                      power of mu over one common denominator, plus a
                      pi^2-degree shift; the arithmetic runs on ints.
                      It is the one exact arithmetic type.
* ``PiPoly``       -- the read-only value q pi^(2j) (Rational q, degree
                      j) that ``MuSeries.coeff`` returns; every exact
                      number the package reports has this shape.
* ``TightPoly``    -- sparse multivariate polynomials in the squared
                      boundary lengths ell_i = L_i^2 and the moment
                      variables m_1..m_D, with Rational coefficients,
                      held as a {exponent key: coefficient} term map.
                      There is no polynomial algebra: a cell comes from
                      the closed form or the disk store, and is read
                      through ``dm``, ``ell_slice`` and the two
                      substitutions that put values in for the m_k,
                      grouped by ell-exponent.  ``subst_m`` puts in exact
                      MuSeries values.  ``subst_m_mpf`` is the numeric
                      kernel, with one mode: it runs on mpmath's raw mpf
                      tuples, forms each term's product q prod m_k^e_k
                      once, and returns each group's signed sum and sum
                      of magnitudes as raw tuples from that one pass.
                      ``eval_ell_groups`` reads those tuples at the
                      ell-values and tracks cancellation.  A cell's
                      groups are read through ``boltzmann.cell_groups``,
                      which also holds the mpf lift of the coefficients
                      (``mpf_list``) once per cell and precision, so no
                      pass converts a coefficient again.  The disk store
                      holds a cell in term order as ``to_columns`` gives
                      it; ``to_obj`` is the sorted display form.

Floats only ever appear at the final evaluation step, through mpmath at a
configurable binary precision (default 113 bits).  Quantities near the
critical fugacity span hundreds of orders of magnitude; mpmath's unbounded
exponent makes plain evaluation safe.  The numeric loops call mpmath.libmp
on raw mpf tuples with the caller's precision and round-to-nearest passed
explicitly.  These are the calls ``mpf.__mul__`` and ``mpf.__add__`` make
inside, so every result is the one the mpf operators give at that
precision, and none depends on the ambient ``mp.prec``.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction as Rational
from itertools import chain, compress
from typing import Iterable, Mapping, Sequence

import mpmath
from mpmath import mp
from mpmath.libmp import (fzero, from_float, from_int, mpf_abs, mpf_add,
                          mpf_div, mpf_lt, mpf_mul, mpf_pos, round_nearest)

from tightwp.errors import DomainError, ShapeError

DEFAULT_PREC = 113
CANCEL_THRESHOLD = 1e-6
_RN = round_nearest  # the rounding of the mpf operators, passed explicitly

_R0 = Rational(0)


def rat_to_str(q) -> str:
    """Canonical 'num/den' form, denominator always explicit."""
    return f"{q.numerator}/{q.denominator}"


def rat_from_str(s: str) -> Rational:
    return Rational(s)


def mpf_list(qs: Iterable, prec: int = DEFAULT_PREC) -> list:
    """Rationals (or ints) as mpf at the given precision: numerator over
    denominator, each rounded to prec first, as mpf(num) / mpf(den)
    gives them."""
    make = mp.make_mpf
    return [make(mpf_div(from_int(int(q.numerator), prec, _RN),
                         from_int(int(q.denominator), prec, _RN), prec, _RN))
            for q in qs]


def to_mpf(q, prec: int = DEFAULT_PREC):
    """Convert a Rational (or int) to an mpf at the given precision."""
    return mpf_list((q,), prec)[0]


def pi_squared(prec: int = DEFAULT_PREC):
    """pi^2 at the given binary precision (deterministic per precision)."""
    with mp.workprec(prec):
        return mp.pi ** 2


class PiPoly:
    """The exact value q pi^(2j): a Rational q and a pi^2-degree j.

    Every exact number the package reports has this shape, since the
    graded degree of a cell term fixes its power of pi.  It is what
    ``MuSeries.coeff`` returns; ``MuSeries`` does the arithmetic, so this
    type has none.  Zero has j = 0, so equal values have equal fields.
    """

    __slots__ = ("q", "j")

    def __init__(self, q, j: int = 0):
        self.q = q if isinstance(q, Rational) else Rational(q)
        self.j = j if self.q else 0

    @classmethod
    def term(cls, q, j: int) -> "PiPoly":
        return cls(q, j)

    def items(self):
        """[(j, q)], or [] for zero."""
        return [(self.j, self.q)] if self.q else []

    def __eq__(self, other):
        if not isinstance(other, PiPoly):
            return NotImplemented
        return (self.q, self.j) == (other.q, other.j)

    def __hash__(self):
        return hash((self.q, self.j))

    def eval(self, prec: int = DEFAULT_PREC):
        """Numeric value at pi^2, deterministic for a fixed precision."""
        with mp.workprec(prec):
            return to_mpf(self.q, prec) * pi_squared(prec) ** self.j

    def to_obj(self):
        """Canonical serialization: [[j, 'num/den']], or [] for zero."""
        return [[j, rat_to_str(q)] for j, q in self.items()]

    def __repr__(self):
        if not self.q:
            return "PiPoly(0)"
        return f"PiPoly(({rat_to_str(self.q)})*pi2^{self.j})"


class MuSeries:
    """Truncated power series in mu, [mu^j] = (n_j / den) pi^(2 (j + shift)).

    Every series the package builds is graded so (R has shift -1, M_k
    shift k, T_{g,n}(0, mu) shift 3g-3+n).  A series is stored as a tuple
    of int numerators n_j over one positive int denominator den, in lowest
    terms (den and the n_j have gcd 1), plus the shift; the zero series is
    (0, ...), 1, 0, so equal series have equal fields.  The constructor
    takes the rationals (or ints) c_j and the shift, which is part of the
    value.  Arithmetic runs on the ints and reduces once per result;
    ``coeff`` turns a numerator into a PiPoly.  Binary operations first
    truncate to the smaller order, and a sum refuses two nonzero series of
    different shifts.
    """

    __slots__ = ("_n", "_d", "_s")

    def __init__(self, coeffs: Sequence, order: int | None = None,
                 shift: int = 0):
        rats = _fit(list(coeffs), order)
        den = math.lcm(*(int(q.denominator) for q in rats))
        self._set([int(q.numerator) * (den // int(q.denominator))
                   for q in rats], den, shift)

    def _set(self, nums: list, den: int, shift: int):
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [x // g for x in nums]
            den //= g
        self._n = tuple(nums) or (0,)
        self._d = den
        self._s = shift if any(self._n) else 0

    @classmethod
    def _raw(cls, nums: list, den: int, shift: int) -> "MuSeries":
        """The series nums/den (den > 0) with the given shift, reduced."""
        s = object.__new__(cls)
        s._set(nums, den, shift)
        return s

    @property
    def order(self) -> int:
        return len(self._n) - 1

    def coeff(self, j: int) -> PiPoly:
        if j < 0 or j > self.order:
            raise DomainError(f"coefficient index {j} out of range")
        return PiPoly(Rational(self._n[j], self._d), j + self._s)

    def coeffs(self):
        return tuple(self.coeff(j) for j in range(self.order + 1))

    @classmethod
    def zero(cls, order: int) -> "MuSeries":
        return cls([], order=order)

    def truncate(self, order: int) -> "MuSeries":
        return MuSeries._raw(_fit(list(self._n), order), self._d, self._s)

    def _common(self, other: "MuSeries") -> int:
        return min(self.order, other.order)

    def __add__(self, other):
        if not isinstance(other, MuSeries):
            return NotImplemented
        p = self._common(other)
        a, b = self._n[:p + 1], other._n[:p + 1]
        if any(a) and any(b) and self._s != other._s:
            raise DomainError("cannot add mu-series of different shifts")
        g = math.gcd(self._d, other._d)
        fa, fb = other._d // g, self._d // g
        return MuSeries._raw([x * fa + y * fb for x, y in zip(a, b)],
                             self._d * fa, self._s if any(a) else other._s)

    def __mul__(self, other):
        if isinstance(other, PiPoly):
            return self._scaled(other.q, self._s + other.j)
        if isinstance(other, (int, Rational)):
            return self._scaled(other, self._s)
        if not isinstance(other, MuSeries):
            return NotImplemented
        return MuSeries._raw(_conv(self._n, other._n, self._common(other)),
                             self._d * other._d, self._s + other._s)

    __rmul__ = __mul__

    def _scaled(self, q, shift: int) -> "MuSeries":
        num = int(q.numerator)
        return MuSeries._raw([x * num for x in self._n],
                             self._d * int(q.denominator), shift)

    def __pow__(self, k: int):
        if k < 0:
            raise DomainError("negative series power")
        out = MuSeries([1], order=self.order)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, MuSeries):
            return NotImplemented
        return (self._n, self._d, self._s) == (other._n, other._d, other._s)

    __hash__ = None

    def derivative(self) -> "MuSeries":
        """d/dmu, one order lower: [mu^j] is (j + 1) [mu^(j+1)], and the
        shift grows by one."""
        if self.order < 1:
            raise DomainError("the derivative needs order >= 1")
        return MuSeries._raw([j * x for j, x in enumerate(self._n)][1:],
                             self._d, self._s + 1)

    def eval(self, mu_value, prec: int = DEFAULT_PREC):
        """Horner evaluation at a numeric mu."""
        with mp.workprec(prec):
            x = mpmath.mpf(mu_value)
            total = mpmath.mpf(0)
            for j in range(self.order, -1, -1):
                total = total * x + self.coeff(j).eval(prec)
            return total

    def __repr__(self):
        return f"MuSeries(order={self.order}, coeffs={list(self.coeffs())!r})"


def _fit(c: list, order: int | None) -> list:
    """c cut or padded with zeros to order + 1 entries (as is for None)."""
    if order is None:
        return c
    if order < 0:
        raise DomainError("negative series order")
    return c[:order + 1] + [0] * (order + 1 - len(c))


def _conv(a: Sequence[int], b: Sequence[int], p: int) -> list:
    """Product of two int coefficient lists, truncated at mu^p."""
    out = [0] * (p + 1)
    for i in range(p + 1):
        x = a[i]
        if x:
            for j in range(p + 1 - i):
                if b[j]:
                    out[i + j] += x * b[j]
    return out


def _power(tab: list, e: int):
    """tab[e] for a power table [None, v, v^2, ...], extended as needed by
    repeated multiplication."""
    while len(tab) <= e:
        tab.append(tab[-1] * tab[1])
    return tab[e]


def _tuples(values: Iterable, prec: int) -> list:
    """The values (anything mpmath.mpf takes) as raw mpf tuples rounded to
    nearest at prec, as mpmath.mpf(v) gives them at that precision."""
    convert = mpmath.mpf.mpf_convert_arg
    return [mpf_pos(convert(v, prec, _RN), prec, _RN) for v in values]


def _mpf_power(tab: list, e: int, prec: int):
    """tab[e] for a raw power table [None, v, v^2, ...], extended as
    needed by repeated multiplication at prec."""
    while len(tab) <= e:
        tab.append(mpf_mul(tab[-1], tab[1], prec, _RN))
    return tab[e]


class TightPoly:
    """Sparse polynomial in (ell_1..ell_n, m_1..m_D) over Rational.

    Term keys are exponent tuples of length n_ell + n_m with the ell block
    first.  The graded degree of a monomial counts ell exponents with
    weight 1 and m_k exponents with weight k.
    """

    __slots__ = ("n_ell", "n_m", "terms")

    def __init__(self, n_ell: int, n_m: int,
                 terms: Mapping[tuple, object] | None = None):
        if n_ell < 0 or n_m < 0:
            raise ShapeError("negative shape")
        self.n_ell = n_ell
        self.n_m = n_m
        width = n_ell + n_m
        t = {}
        if terms:
            for k, q in terms.items():
                k = tuple(int(e) for e in k)
                if len(k) != width or any(e < 0 for e in k):
                    raise ShapeError(f"bad exponent key {k} for shape "
                                     f"({n_ell},{n_m})")
                q = q if isinstance(q, Rational) else Rational(q)
                if q:
                    t[k] = t.get(k, _R0) + q
        self.terms = {k: q for k, q in t.items() if q}

    @classmethod
    def _raw(cls, n_ell: int, n_m: int, terms: dict) -> "TightPoly":
        p = object.__new__(cls)
        p.n_ell = n_ell
        p.n_m = n_m
        p.terms = terms
        return p

    # -- bookkeeping ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self):
        return len(self.terms)

    def grade(self, key: tuple) -> int:
        """Graded degree: sum q_i + sum k * e_k."""
        n = self.n_ell
        return sum(key[:n]) + sum(map(operator.mul, key[n:],
                                      range(1, self.n_m + 1)))

    def __eq__(self, other):
        if not isinstance(other, TightPoly):
            return NotImplemented
        return (self.n_ell, self.n_m, self.terms) == \
            (other.n_ell, other.n_m, other.terms)

    __hash__ = None

    def dm(self, index: int) -> "TightPoly":
        """Formal partial derivative in m_index (1-based)."""
        if not 1 <= index <= self.n_m:
            raise ShapeError(f"m index {index} out of range 1..{self.n_m}")
        pos = self.n_ell + index - 1
        out = {}
        for k, c in self.terms.items():
            e = k[pos]
            if e == 0:
                continue
            kk = k[:pos] + (e - 1,) + k[pos + 1:]
            cc = c * e
            if kk in out:
                out[kk] += cc
            else:
                out[kk] = cc
        return TightPoly._raw(self.n_ell, self.n_m,
                              {k: c for k, c in out.items() if c})

    # -- evaluation -------------------------------------------------------

    def ell_slice(self, ell: tuple) -> "TightPoly":
        """The terms whose ell-block is ``ell``, in the same shape."""
        n = self.n_ell
        return TightPoly._raw(n, self.n_m, {k: q for k, q in self.terms.items()
                                            if k[:n] == ell})

    def subst_m(self, m_values: Sequence, coeffs: Iterable) -> dict:
        """Put exact MuSeries values in for every m_k, keeping ell symbolic.

        Returns {ell-exponent tuple: sum of c prod m_k^e_k} over the
        terms.  m_values[k-1] replaces m_k; ``coeffs`` holds the
        coefficients already lifted into MuSeries, one per term in the
        order of ``terms``.  Each term multiplies the powers into its c in
        variable order, each power formed once by repeated multiplication.
        Numeric values go through ``subst_m_mpf``.
        """
        if len(m_values) != self.n_m:
            raise ShapeError(f"need {self.n_m} m-values, got {len(m_values)}")
        pows = [[None, v] for v in m_values]
        out: dict = {}
        n = self.n_ell
        for key, acc in zip(self.terms, coeffs, strict=True):
            ell_key = key[:n]
            for k, e in enumerate(key[n:]):
                if e:
                    acc = acc * _power(pows[k], e)
            cur = out.get(ell_key)
            out[ell_key] = acc if cur is None else cur + acc
        return out

    def subst_m_mpf(self, m_values: Sequence, coeffs: Sequence,
                    prec: int) -> dict:
        """The numeric kernel: the m_k put in at prec, grouped by
        ell-exponent, on raw mpf tuples.

        m_values[k-1] replaces m_k, rounded to prec as mpmath.mpf rounds
        it.  ``coeffs`` is ``mpf_list(self.terms.values(), prec)``: mpf
        held at prec, one per term in the order of ``terms``.  Each term's
        product q prod m_k^e_k is formed once, q first and the powers in
        variable order, each power once per call by repeated
        multiplication; every operation is a libmp call rounded to nearest
        at prec.  Returns {ell-key: (G, A)} as raw mpf tuples: G sums the
        products and A their absolute values, each key's first term taken
        as formed and the rest added in term order.  Round-to-nearest is
        odd-symmetric, so |round(a b)| = round(|a| |b|), and since the
        coefficients are already at prec, A equals the sum of |q| prod
        |m_k|^e_k formed on its own: one pass serves both sums.
        ``eval_ell_groups`` finishes the evaluation at any ell-values.
        """
        if len(m_values) != self.n_m:
            raise ShapeError(f"need {self.n_m} m-values, got {len(m_values)}")
        pows = [[None, v] for v in _tuples(m_values, prec)]
        out: dict = {}
        n = self.n_ell
        for key, c in zip(self.terms, coeffs, strict=True):
            acc = c._mpf_
            m_key = key[n:]
            for tab, e in zip(compress(pows, m_key), filter(None, m_key)):
                acc = mpf_mul(acc, tab[e] if e < len(tab)
                              else _mpf_power(tab, e, prec), prec, _RN)
            ell_key = key[:n]
            cur = out.get(ell_key)
            if cur is None:
                out[ell_key] = (acc, mpf_abs(acc))
            else:
                out[ell_key] = (mpf_add(cur[0], acc, prec, _RN),
                                mpf_add(cur[1], mpf_abs(acc), prec, _RN))
        return out

    # -- canonical order and serialization ---------------------------------

    def sorted_terms(self):
        """Graded lexicographic order on (m-block, ell-block)."""
        n = self.n_ell

        def sort_key(item):
            k = item[0]
            return (self.grade(k), k[n:], k[:n])

        return sorted(self.terms.items(), key=sort_key)

    def to_obj(self):
        """Canonical display form: [[ell-exps, m-exps, 'num/den'], ...]."""
        n = self.n_ell
        return [[list(k[:n]), list(k[n:]), rat_to_str(q)]
                for k, q in self.sorted_terms()]

    def to_columns(self) -> list:
        """Store form [coeffs, keys_hex, index] in the order of ``terms``:
        the distinct 'num/den' strings in first-use order, the keys as one
        byte per exponent in hex, and per term its index into coeffs.
        Raises ShapeError on an exponent above 255."""
        at, pos = {}, {}
        for q in self.terms.values():
            if id(q) not in at:
                at[id(q)] = pos.setdefault(rat_to_str(q), len(pos))
        try:
            keys = bytes(chain.from_iterable(self.terms)).hex()
        except ValueError:
            raise ShapeError("an exponent above 255 does not fit the one "
                             "byte per exponent of the store") from None
        return [list(pos), keys, [at[id(q)] for q in self.terms.values()]]

    @classmethod
    def from_columns(cls, n_ell: int, n_m: int, cols) -> "TightPoly":
        """Inverse of ``to_columns``, terms in stored order; equal
        coefficients share one Rational.  Raises ShapeError on keys of the
        wrong total width, an index that is not an int in range or a
        repeated key, and ValueError on a payload that is not three
        columns, keys that are not hex or a coefficient that is not
        'num/den' with ints num != 0 and den > 0."""
        coeffs, keys_hex, index = cols
        keys, width = bytes.fromhex(keys_hex), n_ell + n_m
        if len(keys) != width * len(index):
            raise ShapeError(f"{len(keys)} key bytes for {len(index)} terms "
                             f"of shape ({n_ell},{n_m})")
        if index and (set(map(type, index)) != {int} or min(index) < 0
                      or max(index) >= len(coeffs)):
            raise ShapeError(f"a coefficient index is not an int in "
                             f"0..{len(coeffs) - 1}")
        qs = [_parse_coeff(s) for s in coeffs]
        terms = dict(zip(zip(*[iter(keys)] * width) if width else [()],
                         map(qs.__getitem__, index)))
        if len(terms) != len(index):
            raise ShapeError("repeated exponent key")
        return cls._raw(n_ell, n_m, terms)

    def __repr__(self):
        return (f"TightPoly(n_ell={self.n_ell}, n_m={self.n_m}, "
                f"terms={len(self.terms)})")


def _parse_coeff(s) -> Rational:
    """A nonzero Rational from its canonical 'num/den' form."""
    if type(s) is not str or s.count("/") != 1:
        raise ValueError(f"coefficient {s!r} is not 'num/den'")
    num, den = map(int, s.split("/"))
    if not num or den <= 0:
        raise ValueError(f"coefficient {s!r} is zero or has a denominator "
                         f"<= 0")
    return Rational(num, den)


def eval_ell_groups(groups: Mapping, ell_values, prec: int = DEFAULT_PREC):
    """Finish a ``TightPoly.subst_m_mpf`` evaluation at the ell-values.

    ``groups`` is the kernel's {ell-key: (G, A)} of raw mpf tuples.
    Returns (value, abs_sum, cancelled) with value = sum_l G_l prod
    ell_i^l_i and abs_sum = sum_l A_l prod |ell_i|^l_i, which is the sum
    of |term| over the polynomial's terms.  cancelled is set when |value|
    < CANCEL_THRESHOLD * abs_sum; the threshold is read at call time.
    The sums run on raw mpf tuples rounded to nearest at prec, with one
    table of the powers of each ell_i, and one of their absolute values,
    per call.  A group with a positive power of an ell_i = 0 is skipped:
    its terms are exact zeros, and adding zero to a sum already rounded
    to prec returns that sum.  Raises ShapeError when the number of
    ell-values is not the key length.
    """
    key = next(iter(groups), None)
    if key is not None and len(key) != len(ell_values):
        raise ShapeError(f"need {len(key)} ell-values, got {len(ell_values)}")
    tops = [max(col) for col in zip(*groups)]
    tabs = []
    for v, top in zip(_tuples(ell_values, prec), tops):
        if v == fzero:
            tabs.append(None)
            continue
        pows = [None, v]
        _mpf_power(pows, top, prec)
        tabs.append((pows, [None] + [mpf_abs(x, prec, _RN)
                                     for x in pows[1:]]))
    total = abs_total = fzero
    for key, (val, mag) in groups.items():
        for tab, e in zip(tabs, key):
            if e:
                if tab is None:
                    break
                val = mpf_mul(val, tab[0][e], prec, _RN)
                mag = mpf_mul(mag, tab[1][e], prec, _RN)
        else:
            total = mpf_add(total, val, prec, _RN)
            abs_total = mpf_add(abs_total, mag, prec, _RN)
    cancelled = abs_total != fzero and mpf_lt(
        mpf_abs(total, prec, _RN),
        mpf_mul(from_float(CANCEL_THRESHOLD, prec, _RN), abs_total, prec, _RN))
    return mp.make_mpf(total), mp.make_mpf(abs_total), cancelled
