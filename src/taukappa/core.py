"""Exact arithmetic primitives shared by every engine.

All values are `fractions.Fraction` (arbitrary-precision, always reduced);
no floating point is used anywhere in this package.  Multi-indices index
kappa monomials (``{1: 2, 3: 1}`` stands for kappa_1^2 * kappa_3); they and
both parts of a series monomial are exponent tuples ((index, exponent),
...) sorted by index, and each operation on those has its one kernel here:
`merge_exponents`, `exponent_splits`, `runs` and `exponent_factorial`.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import groupby, product
from math import comb, factorial, lcm, prod

__all__ = [
    "MultiIndex",
    "double_factorial",
    "genus_for_dimension",
    "multiindex_binomial",
    "enumerate_sub_multiindices",
    "partitions",
    "multiset_splits",
    "interned",
    "Memo",
    "bucket_sum",
    "merge_exponents",
    "exponent_splits",
    "runs",
    "exponent_factorial",
]


class Memo(dict):
    """A dict that fills a missing key with fill(key) on first lookup."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def bucket_sum(buckets: dict, scale: int = 1) -> Fraction:
    """The reduced Fraction sum of n/k over {k: n}, divided by scale.

    A bucket dict maps a denominator to the integer numerator summed over
    it, so a long exact sum runs on integers: one lcm pass brings the
    buckets to a common denominator, and the Fraction reduces once.
    """
    if not buckets:
        return Fraction(0)
    common = lcm(*buckets)
    return Fraction(sum(n * (common // k) for k, n in buckets.items()),
                    common * scale)


def merge_exponents(a, b, sign=1):
    """Exponent tuple a + sign * b (b may hold negative entries); raises
    ValueError when an exponent goes negative, i.e. a divisor does not divide.

    a is sorted by index, so each entry of b, in b's order, is spliced in
    at its place: added to, replacing or deleting a's entry, or inserted."""
    for i, e in b:
        k = bisect_left(a, (i,))
        if k < len(a) and a[k][0] == i:
            e = a[k][1] + sign * e
            rest = a[k + 1:]
        else:
            e *= sign
            rest = a[k:]
        if e > 0:
            a = a[:k] + ((i, e),) + rest
        elif e:
            raise ValueError(f"exponent {e} at index {i} in a merge")
        else:
            a = a[:k] + rest
    return a


def exponent_splits(part) -> list:
    """(divisor, quotient) pairs of one exponent tuple, trivial divisor
    first; the first entry's exponent in the divisor varies slowest."""
    splits = [((), ())]
    for i, e in part:
        splits = [(d + ((i, a),) if a else d, q + ((i, e - a),) if a < e else q)
                  for d, q in splits for a in range(e + 1)]
    return splits


def runs(values) -> tuple:
    """The exponent tuple ((value, count), ...) of a sorted sequence of
    values: one entry per run of equal values, in the sequence's order."""
    return tuple((v, len(list(run))) for v, run in groupby(values))


def exponent_factorial(*parts) -> int:
    """prod e! over the entries (index, e) of the given exponent tuples."""
    return prod(factorial(e) for part in parts for _, e in part)


def double_factorial(k: int) -> int:
    """k!! with the empty-product conventions (-1)!! = 0!! = 1."""
    if k < -1:
        raise ValueError(f"double factorial undefined for k={k} < -1")
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def genus_for_dimension(degree: int, n: int):
    """The genus g with degree = 3g - 3 + n, or None when there is none.

    `degree` is the total psi and kappa degree of a correlator with n
    psi insertions; the dimension constraint fixes its genus.
    """
    g, rem = divmod(degree - n + 3, 3)
    return None if rem or g < 0 else g


class MultiIndex:
    """Finitely supported map i -> m_i (i >= 1, m_i >= 1 when stored).

    Immutable and hashable; used as the exponent vector of a kappa
    monomial and as the summation variable of all coefficient families.
    `weight` is |m| = sum_i i*m_i and `size` is ||m|| = sum_i m_i, both
    computed once at construction, as is the hash.
    """

    __slots__ = ("entries", "weight", "size", "_hash")

    def __init__(self, entries=()):
        if isinstance(entries, dict):
            items = entries.items()
        else:
            items = entries
        cleaned = {}
        weight = size = 0
        for i, m in items:
            if i < 1:
                raise ValueError(f"multi-index positions start at 1, got {i}")
            if m < 0:
                raise ValueError(f"negative multiplicity {m} at position {i}")
            if m:
                cleaned[i] = cleaned.get(i, 0) + m
                weight += i * m
                size += m
        entries = tuple(sorted(cleaned.items()))
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "_hash", hash(entries))

    def __setattr__(self, name, value):
        raise AttributeError("MultiIndex is immutable")

    def __reduce__(self):
        # pickle would restore the slots through the blocked __setattr__
        return (MultiIndex, (self.entries,))

    def __bool__(self):
        return bool(self.entries)

    def __eq__(self, other):
        return isinstance(other, MultiIndex) and self.entries == other.entries

    def __hash__(self):
        return self._hash

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        return MultiIndex(merge_exponents(self.entries, other.entries))

    def __sub__(self, other: "MultiIndex") -> "MultiIndex":
        return MultiIndex(merge_exponents(self.entries, other.entries, -1))

    def factorial(self) -> int:
        """m! = prod_i m_i!."""
        return exponent_factorial(self.entries)

    def __repr__(self):
        if not self.entries:
            return "MultiIndex()"
        body = ", ".join(f"{i}: {m}" for i, m in self.entries)
        return f"MultiIndex({{{body}}})"

    def __str__(self):
        return ",".join(f"{i}:{m}" for i, m in self.entries) if self.entries else "-"

    @classmethod
    def parse(cls, text: str) -> "MultiIndex":
        """Parse the CLI syntax 'i:mult,i:mult'; '' or '-' is the empty index."""
        text = text.strip()
        if text in ("", "-"):
            return EMPTY
        pairs = []
        for chunk in text.split(","):
            i, _, m = chunk.partition(":")
            pairs.append((int(i), int(m) if m else 1))
        return cls(pairs)


EMPTY = MultiIndex()


def multiindex_binomial(b: MultiIndex, t: MultiIndex) -> int:
    """prod_i C(b_i, t_i); zero when t exceeds b in any slot."""
    out = 1
    bmap = dict(b.entries)
    for i, ti in t.entries:
        out *= comb(bmap.get(i, 0), ti)
        if out == 0:
            return 0
    return out


# one shared object per distinct multi-index, by its entries, EMPTY among
# them: equal keys then match by identity in every table, and the split memo
# below builds each multi-index it hands out once
_INTERNED = Memo(MultiIndex)
_INTERNED[()] = EMPTY


def interned(entries: tuple) -> MultiIndex:
    """The shared MultiIndex of a canonical entries tuple (sorted by index,
    no zero exponent), built on its first request."""
    return _INTERNED[entries]


def _split_pairs(b: MultiIndex) -> tuple:
    _INTERNED.setdefault(b.entries, b)
    return tuple((_INTERNED[left], _INTERNED[right])
                 for left, right in exponent_splits(b.entries))


# the recursion splits the same few multi-indices again on every call
_SPLITS = Memo(_split_pairs)


def enumerate_sub_multiindices(b: MultiIndex) -> tuple:
    """All ordered pairs (L, L') with L + L' = b, lexicographic in L.

    Returns exactly prod_i (b_i + 1) pairs; the order is deterministic so
    that memo tables fill identically across runs.  The tuple is computed
    once per distinct b and shared by every caller, and equal multi-indices
    in any two results are the same object.
    """
    return _SPLITS[b]


def partitions(total: int, slots: int) -> list[tuple]:
    """Sorted-desc tuples of length `slots`, entries >= 0, summing to total,
    in descending lexicographic order; none when total < 0."""
    out = []
    cur = [0] * slots

    def rec(i, rem, cap):
        if rem == 0:
            out.append(tuple(cur))
            return
        if i == slots or rem > cap * (slots - i):
            return
        for v in range(min(rem, cap), 0, -1):
            cur[i] = v
            rec(i + 1, rem - v, v)
        cur[i] = 0

    rec(0, total, total)
    return out


def multiset_splits(values: tuple):
    """Ordered splits of a multiset into (part, rest) with multiplicities.

    Yields (part, rest, ways) where ways counts the labeled subsets
    realizing the split.  Both tuples keep the values sorted descending;
    the order of the splits is deterministic.
    """
    groups = runs(sorted(values, reverse=True))
    for choice in product(*(range(c + 1) for _, c in groups)):
        part = ()
        rest = ()
        ways = 1
        for (v, c), k in zip(groups, choice):
            part += (v,) * k
            rest += (v,) * (c - k)
            ways *= comb(c, k)
        yield part, rest, ways


def multiindices_of_weight(w: int) -> list[MultiIndex]:
    """All multi-indices of weight exactly w: the partitions of w, each by
    its part counts, in `partitions`' order."""
    return [MultiIndex(runs(filter(None, p))) for p in partitions(w, w)]


def multiindices_up_to_weight(bmax: int) -> list[MultiIndex]:
    """All multi-indices of weight <= bmax, the empty one first."""
    out = []
    for w in range(bmax + 1):
        out.extend(multiindices_of_weight(w))
    return out

