"""Exact arithmetic primitives shared by every engine.

All values are `fractions.Fraction` (arbitrary-precision, always reduced);
no floating point is used anywhere in this package.  Multi-indices are the
finitely supported integer sequences that index kappa monomials: the index
``{1: 2, 3: 1}`` stands for kappa_1^2 * kappa_3.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, factorial, lcm

__all__ = [
    "MultiIndex",
    "double_factorial",
    "genus_for_dimension",
    "multiindex_binomial",
    "enumerate_sub_multiindices",
    "partitions",
    "multiset_splits",
    "Memo",
    "bucket_sum",
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
        out = dict(self.entries)
        for i, m in other.entries:
            out[i] = out.get(i, 0) + m
        return MultiIndex(out)

    def __sub__(self, other: "MultiIndex") -> "MultiIndex":
        out = dict(self.entries)
        for i, m in other.entries:
            out[i] = out.get(i, 0) - m
            if out[i] < 0:
                raise ValueError(f"{self} - {other} has a negative entry")
        return MultiIndex(out)

    def factorial(self) -> int:
        """m! = prod_i m_i!."""
        out = 1
        for _, m in self.entries:
            out *= factorial(m)
        return out

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


# one shared object per distinct multi-index, EMPTY among them: equal keys
# then match by identity in every table, and the split memo below costs
# no more memory than the multi-indices it hands out
_INTERNED = Memo(lambda m: m)
_INTERNED[EMPTY] = EMPTY


def _split_pairs(b: MultiIndex) -> tuple:
    intern = _INTERNED.__getitem__
    b = intern(b)
    positions = [i for i, _ in b.entries]
    ranges = [range(m + 1) for _, m in b.entries]
    pairs = []
    for choice in product(*ranges):
        left = intern(MultiIndex(zip(positions, choice)))
        pairs.append((left, intern(b - left)))
    return tuple(pairs)


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
    distinct = sorted(set(values), reverse=True)
    counts = [values.count(v) for v in distinct]
    for choice in product(*(range(c + 1) for c in counts)):
        part = ()
        rest = ()
        ways = 1
        for v, c, k in zip(distinct, counts, choice):
            part += (v,) * k
            rest += (v,) * (c - k)
            ways *= comb(c, k)
        yield part, rest, ways


def multiindices_of_weight(w: int) -> list[MultiIndex]:
    """All multi-indices of weight exactly w: the partitions of w, each by
    its part counts, in `partitions`' order."""
    return [MultiIndex(Counter(filter(None, p))) for p in partitions(w, w)]


def multiindices_up_to_weight(bmax: int) -> list[MultiIndex]:
    """All multi-indices of weight <= bmax, the empty one first."""
    out = []
    for w in range(bmax + 1):
        out.extend(multiindices_of_weight(w))
    return out

