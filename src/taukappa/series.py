"""Truncated multivariate series in t_0, t_1, ... and s_1, s_2, ...

A monomial is a pair (tpart, spart) of `core` exponent tuples, multiplied
and split by `core.merge_exponents` and `core.exponent_splits`.
Because the generating functions are truncated, a series carries an
explicit admission set: the monomials whose coefficients are fully
determined by the data that went in.  `admitted is None` means the series
is exact (a polynomial: every absent coefficient is a true zero).
Arithmetic intersects admission conservatively; a product coefficient is
admitted only when every factorization of the monomial stays admitted in
both factors.

`exp` is graded: with deg = t-count + s-count, the Euler operator
E = sum_v v d/dv multiplies a degree-N monomial by N, and E exp(G) =
E(G) exp(G) gives, for Z = exp(G),

    deg(m) Z[m] = sum over d | m, d != 1 of deg(d) G[d] Z[m/d],  Z[1] = 1.

Walking the output monomials in increasing degree, each coefficient needs
only coefficients already computed at its divisors, so the output set must
be divisor-closed; no product outside it is ever formed.  The closure pass
buckets the admitted monomials by degree and, degree by degree, admits m
once every m/v (v a variable of m) is in, stopping at the first that is
not; by induction every divisor of m is then in.  It sums degrees and
splices each m/v inline, with no call per monomial.  deg(d) G[d] and
the computed Z[q] are held by t-part, then s-part, so a split d = (dt, ds)
is dropped when G has no term with t-part dt or Z none with t-part m/dt,
before any s-part split is walked.  The sum for one Z[m] runs on
integers: each product adds its numerator under its denominator, and
`core.bucket_sum` forms one Fraction at the end.

`PackedSeries` codes a series' monomials as ints, one bit field per
variable, so that a product of monomials is an add; a series builds it on
first use (`TruncatedSeries.packed`), and `V_k` runs on it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .core import Memo, bucket_sum, exponent_splits, merge_exponents

__all__ = [
    "Monomial", "merge_exponents", "mono_mul", "mono_splits",
    "format_monomial", "PackedSeries", "TruncatedSeries",
]

Monomial = tuple   # ((t_idx, exp), ...), ((s_idx, exp), ...)

EMPTY_MONO: Monomial = ((), ())


def mono_mul(m1: Monomial, m2: Monomial, sign=1) -> Monomial:
    """m1 * m2, or m1 / m2 with sign = -1 (ValueError if m2 does not divide)."""
    return (merge_exponents(m1[0], m2[0], sign),
            merge_exponents(m1[1], m2[1], sign))


def mono_splits(m: Monomial):
    """(d, m/d) for every monomial d dividing m, starting with d = 1."""
    ssplits = exponent_splits(m[1])
    for dt, qt in exponent_splits(m[0]):
        for ds, qs in ssplits:
            yield (dt, ds), (qt, qs)


def _degree(m: Monomial) -> int:
    """The grading of `exp`: t-count + s-count."""
    return sum(e for _, e in m[0]) + sum(e for _, e in m[1])


def _divisor_closed(admitted) -> list:
    """The monomials of `admitted` whose divisors are all in it, by
    increasing degree: the closure pass of the module docstring."""
    by_degree: dict[int, list] = {}
    for m in admitted:
        degree = 0
        for part in m:
            for _, e in part:
                degree += e
        by_degree.setdefault(degree, []).append(m)
    order, closed = [], {EMPTY_MONO}
    for degree in sorted(by_degree):
        for m in by_degree[degree]:
            t, s = m
            for k, (i, e) in enumerate(t):
                lower = ((i, e - 1),) if e > 1 else ()
                if (t[:k] + lower + t[k + 1:], s) not in closed:
                    break
            else:
                for k, (i, e) in enumerate(s):
                    lower = ((i, e - 1),) if e > 1 else ()
                    if (t, s[:k] + lower + s[k + 1:]) not in closed:
                        break
                else:
                    order.append(m)
                    closed.add(m)
    return order


def format_monomial(m: Monomial) -> str:
    return "*".join(f"{v}{i}" + (f"^{e}" if e > 1 else "")
                    for v, part in zip("ts", m) for i, e in part) or "1"


class PackedSeries:
    """The admitted monomials (an exact series' terms and `cover`) as ints:
    t_0..t_tmax, then s_1..s_smax, each exponent in a `width`-bit field
    from the low bits up.  A field holds the largest exponent plus 2, the
    most a V_k input adds, so an input coded by an add carries nowhere.
    `monomials` maps each int to its monomial, `coded` to its coefficient
    as (numerator, denominator), or () for a zero."""

    def __init__(self, terms, admitted, cover=()):
        every = [*(terms if admitted is None else admitted), *cover]
        self.tmax = max([i for t, _ in every for i, _ in t] + [0])
        smax = max([j for _, s in every for j, _ in s] + [0])
        top = max([e for m in every for part in m for _, e in part] + [0])
        self.width = (top + 2).bit_length()
        self.mask = (1 << self.width) - 1
        self.outside = -1 << (self.tmax + 1 + smax) * self.width
        self.monomials = {self.pack(m): m for m in every}
        self.coded = {p: (c.numerator, c.denominator)
                      if (c := terms.get(m)) else ()
                      for p, m in self.monomials.items()}

    def pack(self, m: Monomial) -> int:
        w, p = self.width, 0
        for i, e in m[0]:
            p += e << i * w
        for j, e in m[1]:
            p += e << (self.tmax + j) * w
        return p

    def unit(self, i: int) -> int:
        """t_i; past tmax `outside`, below 0, where nothing coded lies,
        so an input that adds it is neither stored nor admitted."""
        return 1 << i * self.width if i <= self.tmax else self.outside


class TruncatedSeries:
    """Sparse series with explicit admission bookkeeping.

    No monomial is stored outside the admission region: coefficients a
    truncation corrupted are dropped on construction, so `terms` only
    ever holds trusted values (admitted-but-absent means exactly zero).
    """

    def __init__(self, terms=None, admitted=None):
        self.admitted = None if admitted is None else frozenset(admitted)
        self.terms: dict[Monomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                if c and (self.admitted is None or m in self.admitted):
                    self.terms[m] = Fraction(c)

    @cached_property
    def packed(self) -> PackedSeries:
        """The integer coding of this series, built on first use."""
        return PackedSeries(self.terms, self.admitted)

    def coefficient(self, m: Monomial) -> Fraction:
        return self.terms.get(m, Fraction(0))

    def is_admitted(self, m: Monomial) -> bool:
        return self.admitted is None or m in self.admitted

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c     # zero sums drop on construction
        return TruncatedSeries(terms, _intersect(self.admitted, other.admitted))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + other.scaled(-1)

    def scaled(self, scalar) -> "TruncatedSeries":
        scalar = Fraction(scalar)
        return TruncatedSeries({m: c * scalar for m, c in self.terms.items()},
                               self.admitted)

    def mul(self, other: "TruncatedSeries", region=None) -> "TruncatedSeries":
        """Product.  When either factor is truncated, admission is granted
        on the candidate monomials (`region` if supplied, else every
        product of stored terms) whose every factorization stays admitted
        in both factors.  Coefficients are summed over the factorizations
        of admitted candidates only."""
        exact = self.admitted is None and other.admitted is None
        if region is None or exact:
            region = {mono_mul(m1, m2) for m1 in self.terms
                      for m2 in other.terms}
        terms, adm = {}, set()
        for m in region:
            acc = 0
            for d, q in mono_splits(m):
                if not (self.is_admitted(d) and other.is_admitted(q)):
                    break
                if d in self.terms and q in other.terms:
                    acc += self.terms[d] * other.terms[q]
            else:
                adm.add(m)
                terms[m] = acc
        return TruncatedSeries(terms, None if exact else adm)

    def exp(self) -> "TruncatedSeries":
        """exp of a truncated series with no constant term, by the graded
        recurrence of the module docstring, computed and admitted exactly
        on the admitted monomials whose divisors other than 1 are all
        admitted: every factorization of such a monomial draws only on
        admitted input coefficients."""
        if EMPTY_MONO in self.terms:
            raise ValueError("exp needs a series with zero constant term")
        if self.admitted is None:
            raise ValueError("exp needs a truncated series")
        order = _divisor_closed(self.admitted)
        # deg(d) G[d] and the computed Z[q], as {t-part: {s-part: (n, k)}}
        # for the fraction n/k, so a split is skipped on its t-parts alone
        weighted: dict = {}
        for (t, s), c in self.terms.items():
            weighted.setdefault(t, {})[s] = (_degree((t, s)) * c.numerator,
                                             c.denominator)
        z = {(): {(): (1, 1)}}
        terms = {EMPTY_MONO: Fraction(1)}
        ssplits = Memo(exponent_splits)
        for m in order:
            t, s = m
            sparts = ssplits[s]
            acc: dict[int, int] = {}
            for dt, qt in exponent_splits(t):
                grow, zrow = weighted.get(dt), z.get(qt)
                if grow is None or zrow is None:
                    continue
                for ds, qs in sparts:
                    c, zq = grow.get(ds), zrow.get(qs)
                    if c is not None and zq is not None:
                        k = c[1] * zq[1]
                        acc[k] = acc.get(k, 0) + c[0] * zq[0]
            value = bucket_sum(acc, _degree(m))
            if value:
                terms[m] = value
                z.setdefault(t, {})[s] = (value.numerator, value.denominator)
        return TruncatedSeries(terms, order)

    def derivative(self, idx: int) -> "TruncatedSeries":
        """d/dt_idx; admission shifts along the derivative."""
        unit = (((idx, 1),), ())
        terms = {}
        for m, c in self.terms.items():
            e = dict(m[0]).get(idx, 0)
            if e:
                mm = mono_mul(m, unit, -1)
                terms[mm] = terms.get(mm, Fraction(0)) + c * e
        adm = (None if self.admitted is None else
               {mono_mul(m, unit, -1) for m in self.admitted
                if any(i == idx for i, _ in m[0])})
        return TruncatedSeries(terms, adm)

    def nonzero_admitted(self):
        """(monomial, coefficient) pairs that are admitted and nonzero,
        sorted: the stored terms, which construction keeps to those."""
        return sorted(self.terms.items())

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        adm = "exact" if self.admitted is None else f"admitted={len(self.admitted)}"
        return f"TruncatedSeries(terms={len(self.terms)}, {adm})"


def _intersect(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return frozenset(a) & frozenset(b)
