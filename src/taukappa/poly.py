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

A polynomial is stored as integers over one denominator: `den > 0` and
`ints = {class: int}`, with no zero entry and gcd(den, *ints) == 1, so
the stored form is unique.  Every kernel reads and writes that form, and
`Fraction`s are formed only at the boundary: by the constructor, which
takes a `{class: Fraction}` dict, by `get`, and by the read-only
`classes` view.  `linear_combination` keeps a running lcm: closing a
`core.bucket_sum` bucket per class made `verify engines` about 4% slower.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm
from types import MappingProxyType

from .core import partitions, runs

__all__ = ["SymmetricPoly", "class_key", "divide_by_variable_sum",
           "linear_combination", "times_power_sum"]


def class_key(vec) -> tuple:
    """Sorted-descending exponent tuple with zeros dropped."""
    return tuple(sorted((v for v in vec if v), reverse=True))


class SymmetricPoly:
    """Homogeneous symmetric polynomial stored by sorted-exponent class,
    as the integers `ints` over the denominator `den`."""

    __slots__ = ("nvars", "degree", "den", "ints")

    def __init__(self, nvars: int, degree: int, classes=None):
        fracs = {k: Fraction(c) for k, c in (classes or {}).items() if c}
        for k in fracs:
            if k != class_key(k) or sum(k) != degree or len(k) > nvars:
                raise ValueError(f"class {k} is not a sorted class of shape "
                                 f"({nvars}, {degree})")
        den = lcm(*(c.denominator for c in fracs.values()))
        self.nvars, self.degree, self.den = nvars, degree, den
        self.ints = {k: c.numerator * (den // c.denominator)
                     for k, c in fracs.items()}

    @classmethod
    def from_ints(cls, nvars: int, degree: int, den: int,
                  ints: dict) -> "SymmetricPoly":
        """ints[key] / den on trusted class keys, den > 0: zero entries are
        dropped and the common factor of den and the entries divided out."""
        ints = {k: c for k, c in ints.items() if c}
        g = gcd(den, *ints.values()) if den != 1 else 1
        if g != 1:
            den //= g
            ints = {k: c // g for k, c in ints.items()}
        self = object.__new__(cls)
        self.nvars, self.degree, self.den, self.ints = nvars, degree, den, ints
        return self

    @property
    def classes(self):
        """Read-only {class: Fraction} view, built on each access."""
        return MappingProxyType({k: Fraction(c, self.den)
                                 for k, c in self.ints.items()})

    def get(self, vec_or_key) -> Fraction:
        """Coefficient at an exponent vector (any order) or class key."""
        return Fraction(self.ints.get(class_key(vec_or_key), 0), self.den)

    def __bool__(self):
        return bool(self.ints)

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
            out[class_key(ev)] = sum(
                self.ints.get(class_key(f), 0)
                * other.ints.get(class_key([e - x for e, x in zip(ev, f)]), 0)
                for f in product(*(range(e + 1) for e in ev))
                if sum(f) == self.degree)
        return SymmetricPoly.from_ints(self.nvars, deg, self.den * other.den,
                                       out)

    def __repr__(self):
        return (f"SymmetricPoly(nvars={self.nvars}, degree={self.degree}, "
                f"classes={len(self.ints)})")


def linear_combination(nvars: int, degree: int, terms) -> SymmetricPoly:
    """sum of scalar * poly over the (poly, scalar) terms, in nvars
    variables and of the given degree.

    The running sum keeps one integer per class over the lcm of the
    denominators seen so far.  Terms are read one at a time, so an
    iterator of products is never held all at once.
    """
    den = 1
    acc = {}
    for poly, scalar in terms:
        if poly.nvars != nvars:
            raise ValueError(f"variable count mismatch: {nvars} vs "
                             f"{poly.nvars}")
        if poly.ints and poly.degree != degree:
            raise ValueError(f"degree mismatch: {degree} vs {poly.degree}")
        scalar = Fraction(scalar)
        if not scalar or not poly.ints:
            continue
        tden = poly.den * scalar.denominator
        common = lcm(den, tden)
        if common != den:
            up = common // den
            for k in acc:
                acc[k] *= up
            den = common
        mult = scalar.numerator * (common // tden)
        for k, c in poly.ints.items():
            acc[k] = acc.get(k, 0) + mult * c
    return SymmetricPoly.from_ints(nvars, degree, den, acc)


def times_power_sum(poly: SymmetricPoly, k: int,
                    times: int = 1) -> SymmetricPoly:
    """poly * (x_1^k + ... + x_n^k)^times, one pass over the classes per
    factor; k >= 1."""
    ints = poly.ints
    for _ in range(times):
        ints = _push_power_sum(ints, poly.nvars, k)
    return SymmetricPoly.from_ints(poly.nvars, poly.degree + k * times,
                                   poly.den, ints)


def _push_power_sum(ints: dict, nvars: int, k: int) -> dict:
    """{class: int} times x_1^k + ... + x_n^k.

    Multiplying the monomial class `key` by p_k raises one entry u of it
    to u + k, for each distinct value u of key and for u = 0 when key
    has fewer than nvars entries.  In the target class t, each of the
    t.count(u + k) entries equal to u + k can be the raised one, and each
    choice lowers t back to key (Macdonald, Symmetric Functions and Hall
    Polynomials, I.2).  The raised entry moves left past the smaller
    entries; the equal entries it then meets are the other choices.
    """
    out = {}
    for key, c in ints.items():
        if not c:
            continue
        prev = None
        for i, u in enumerate(key + (0,) if len(key) < nvars else key):
            if u == prev:
                continue
            prev = u
            w = u + k
            j = i
            while j and key[j - 1] < w:
                j -= 1
            lo = j
            while lo and key[lo - 1] == w:
                lo -= 1
            t = key[:j] + (w,) + key[j:i] + key[i + 1:]
            out[t] = out.get(t, 0) + c * (j - lo + 1)
    return out


def divide_by_variable_sum(num: SymmetricPoly) -> SymmetricPoly:
    """Exact quotient num / (x_1 + ... + x_n) for symmetric num.

    Solves the triangular system Q[f] = num[f + e_1] - (other unit moves),
    walking quotient classes in descending lex order, then checks that
    the quotient times the variable sum is num.  Raises ValueError if the
    division is not exact.  Both passes run on num's integers: by
    Gauss's lemma the quotient of an integer polynomial by the primitive
    x_1 + ... + x_n has integer coefficients.
    """
    n = num.nvars
    deg = num.degree
    if deg < 1:
        if not num.ints:
            return SymmetricPoly(n, deg - 1)
        raise ValueError("nonzero polynomial of degree < 1 is not divisible")
    ints = num.ints
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
    if {k: v for k, v in back.items() if v} != ints:
        raise ValueError("polynomial is not divisible by the variable sum")
    return SymmetricPoly.from_ints(n, deg - 1, num.den, out)


def _unit_decrements(ev):
    """Distinct classes from lowering one positive entry of sorted ev by 1."""
    for v, mult in runs(ev):
        if v >= 1:
            w = list(ev)
            w[w.index(v)] = v - 1
            yield class_key(w), mult
