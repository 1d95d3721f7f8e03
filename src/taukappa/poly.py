"""Sparse symmetric homogeneous polynomials with exact rational coefficients.

The generating-function engines only ever build polynomials that are
invariant under permuting the variables, so `SymmetricPoly`, the one
polynomial type, stores one coefficient per sorted-exponent class.  A
class key is the exponent vector sorted descending with trailing zeros
dropped; `(2, 1)` in three variables stands for all six monomials of
shape x_i^2 x_j.

`times_power_sum` multiplies by a power of a power sum x_1^k + ... + x_n^k
in one linear pass over the classes per factor; it is the only product
the n-point engines use, and the exactness check of
`divide_by_variable_sum` is its k = 1 pass.  `SymmetricPoly.mul` is the
general product, a plain sum over exponent vectors.

Coefficients are `Fraction`s at the boundary, but the inner sums of
`times_power_sum`, `divide_by_variable_sum` and `linear_combination` run
on integers: each operand is put over the lcm of its denominators
(`SymmetricPoly.integer_form`, built on the spot and never stored), and one
`Fraction` is formed per output class; runs of equal exponents come from
`core.runs`.  `linear_combination` keeps a running lcm: closing a
`core.bucket_sum` bucket per class made `verify engines` about 4% slower.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm

from .core import partitions, runs

__all__ = ["SymmetricPoly", "class_key", "divide_by_variable_sum",
           "linear_combination", "times_power_sum"]


def class_key(vec) -> tuple:
    """Sorted-descending exponent tuple with zeros dropped."""
    return tuple(sorted((v for v in vec if v), reverse=True))


class SymmetricPoly:
    """Homogeneous symmetric polynomial stored by sorted-exponent class."""

    __slots__ = ("nvars", "degree", "classes")

    def __init__(self, nvars: int, degree: int, classes=None):
        self.nvars = nvars
        self.degree = degree
        self.classes = dict(classes) if classes else {}
        for k in self.classes:
            if sum(k) != degree or len(k) > nvars:
                raise ValueError(f"class {k} violates shape ({nvars}, {degree})")

    def get(self, vec_or_key) -> Fraction:
        """Coefficient at an exponent vector (any order) or class key."""
        return self.classes.get(class_key(vec_or_key), Fraction(0))

    def __bool__(self):
        return bool(self.classes)

    def integer_form(self) -> tuple[int, dict]:
        """(den, {key: int}) with classes[key] == ints[key] / den, where den
        is the lcm of the coefficients' denominators."""
        den = lcm(*(c.denominator for c in self.classes.values()))
        return den, {k: c.numerator * (den // c.denominator)
                     for k, c in self.classes.items()}

    def mul(self, other: "SymmetricPoly") -> "SymmetricPoly":
        """Product: the coefficient at a sorted exponent vector ev is the
        sum of a[f] * b[ev - f] over the exponent vectors 0 <= f <= ev of
        degree self.degree."""
        if other.nvars != self.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs "
                             f"{other.nvars}")
        deg = self.degree + other.degree
        out = {}
        for ev in partitions(deg, self.nvars):
            tot = sum(self.get(f) * other.get([e - x for e, x in zip(ev, f)])
                      for f in product(*(range(e + 1) for e in ev))
                      if sum(f) == self.degree)
            if tot:
                out[class_key(ev)] = tot
        return SymmetricPoly(self.nvars, deg, out)

    def __repr__(self):
        return (f"SymmetricPoly(nvars={self.nvars}, degree={self.degree}, "
                f"classes={len(self.classes)})")


def linear_combination(nvars: int, degree: int, terms) -> SymmetricPoly:
    """sum of scalar * poly over the (poly, scalar) terms, in nvars
    variables and of the given degree.

    Each term enters through its integer form; the running sum keeps one
    integer per class over the lcm of the denominators seen so far, and
    one `Fraction` per class is formed at the end.  Terms are read one at
    a time, so an iterator of products is never held all at once.
    """
    den = 1
    acc = {}
    for poly, scalar in terms:
        if poly.nvars != nvars:
            raise ValueError(f"variable count mismatch: {nvars} vs "
                             f"{poly.nvars}")
        if poly.classes and poly.degree != degree:
            raise ValueError(f"degree mismatch: {degree} vs {poly.degree}")
        scalar = Fraction(scalar)
        if not scalar or not poly.classes:
            continue
        pden, ints = poly.integer_form()
        tden = pden * scalar.denominator
        common = lcm(den, tden)
        if common != den:
            up = common // den
            for k in acc:
                acc[k] *= up
            den = common
        mult = scalar.numerator * (common // tden)
        for k, c in ints.items():
            acc[k] = acc.get(k, 0) + mult * c
    return SymmetricPoly(nvars, degree, {k: Fraction(c, den)
                                         for k, c in acc.items() if c})


def times_power_sum(poly: SymmetricPoly, k: int,
                    times: int = 1) -> SymmetricPoly:
    """poly * (x_1^k + ... + x_n^k)^times, one pass over the classes per
    factor, on poly's integer form; k >= 1."""
    den, ints = poly.integer_form()
    for _ in range(times):
        ints = _push_power_sum(ints, poly.nvars, k)
    return SymmetricPoly(poly.nvars, poly.degree + k * times,
                         {key: Fraction(c, den)
                          for key, c in ints.items() if c})


def _push_power_sum(ints: dict, nvars: int, k: int) -> dict:
    """{class: int} times x_1^k + ... + x_n^k.

    Multiplying the monomial class `key` by p_k raises one entry u of it
    to u + k, for each distinct value u of key and for u = 0 when key
    has fewer than nvars entries.  In the target class t, each of the
    t.count(u + k) entries equal to u + k can be the raised one, and each
    choice lowers t back to key (Macdonald, Symmetric Functions and Hall
    Polynomials, I.2).
    """
    out = {}
    for key, c in ints.items():
        if not c:
            continue
        prev = None
        for i, u in enumerate(key):
            if u == prev:
                continue
            prev = u
            t = tuple(sorted(key[:i] + (u + k,) + key[i + 1:], reverse=True))
            out[t] = out.get(t, 0) + c * t.count(u + k)
        if len(key) < nvars:
            t = tuple(sorted(key + (k,), reverse=True))
            out[t] = out.get(t, 0) + c * t.count(k)
    return out


def divide_by_variable_sum(num: SymmetricPoly) -> SymmetricPoly:
    """Exact quotient num / (x_1 + ... + x_n) for symmetric num.

    Solves the triangular system Q[f] = num[f + e_1] - (other unit moves),
    walking quotient classes in descending lex order, then checks that
    the quotient times the variable sum is num.  Raises ValueError if the
    division is not exact.  Both passes run on num's integer form: by
    Gauss's lemma the quotient of an integer polynomial by the primitive
    x_1 + ... + x_n has integer coefficients.
    """
    n = num.nvars
    deg = num.degree
    if deg < 1:
        if not num.classes:
            return SymmetricPoly(n, deg - 1)
        raise ValueError("nonzero polynomial of degree < 1 is not divisible")
    den, ints = num.integer_form()
    out = {}
    for fv in partitions(deg - 1, n):     # descending lex order
        f = class_key(fv)
        ev = [fv[0] + 1] + list(fv[1:])
        acc = ints.get(class_key(ev), 0)
        for kk, mult in _unit_decrements(ev):
            if kk == f:
                # f itself enters with multiplicity 1: ev starts at f[0]+1,
                # strictly above every other entry of the sorted vector
                continue
            acc -= mult * out.get(kk, 0)
        out[f] = acc
    back = _push_power_sum(out, n, 1)
    if ({k: v for k, v in back.items() if v}
            != {k: v for k, v in ints.items() if v}):
        raise ValueError("polynomial is not divisible by the variable sum")
    return SymmetricPoly(n, deg - 1, {k: Fraction(v, den)
                                      for k, v in out.items() if v})


def _unit_decrements(ev):
    """Distinct classes from lowering one positive entry of sorted ev by 1."""
    for v, mult in runs(ev):
        if v >= 1:
            w = list(ev)
            w[w.index(v)] = v - 1
            yield class_key(w), mult
