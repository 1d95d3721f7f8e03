import pickle
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import factorial, gcd, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from taukappa.core import (EMPTY, MultiIndex, double_factorial,
                           enumerate_sub_multiindices, multiindex_binomial,
                           multiindices_of_weight, multiindices_up_to_weight,
                           multiset_splits, partitions, runs)


def test_double_factorial_conventions():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(7) == 105
    assert double_factorial(8) == 384
    with pytest.raises(ValueError):
        double_factorial(-2)


def test_multiindex_norms():
    """weight is |m| = sum_i i m_i and size is ||m|| = sum_i m_i."""
    assert (EMPTY.weight, EMPTY.size) == (0, 0)
    m = MultiIndex({1: 2, 2: 1})
    assert (m.weight, m.size) == (4, 3)
    m = MultiIndex({3: 1})
    assert (m.weight, m.size) == (3, 1)


def test_multiindex_canonical_form():
    assert MultiIndex({1: 0, 2: 3}) == MultiIndex({2: 3})
    assert MultiIndex({1: 1}) != MultiIndex({2: 1})
    assert hash(MultiIndex({1: 2})) == hash(MultiIndex([(1, 1), (1, 1)]))
    with pytest.raises(ValueError):
        MultiIndex({0: 1})
    with pytest.raises(ValueError):
        MultiIndex({1: -1})


def test_multiindex_parse_roundtrip():
    b = MultiIndex.parse("1:3,2:1")
    assert b == MultiIndex({1: 3, 2: 1})
    assert MultiIndex.parse(str(b)) == b
    assert MultiIndex.parse("") == EMPTY
    assert MultiIndex.parse("-") == EMPTY


def test_multiindex_pickle_roundtrip():
    # process-pool workers send MultiIndex values both ways
    for b in (EMPTY, MultiIndex({1: 2}), MultiIndex({1: 3, 4: 1})):
        back = pickle.loads(pickle.dumps(b))
        assert back == b and hash(back) == hash(b)
        assert (back.weight, back.size) == (b.weight, b.size)
    with pytest.raises(AttributeError):
        back.entries = ()


def test_multiindex_is_not_a_container():
    """A MultiIndex is read through `entries`; iterating it or testing
    membership is an error, not a scan over made-up positions."""
    with pytest.raises(TypeError):
        iter(MultiIndex({1: 2}))
    with pytest.raises(TypeError):
        2 in MultiIndex({1: 2})


def test_multiindex_binomial():
    assert multiindex_binomial(MultiIndex({1: 2}), MultiIndex({1: 1})) == 2
    assert multiindex_binomial(MultiIndex({1: 5, 3: 2}), EMPTY) == 1
    assert multiindex_binomial(MultiIndex({1: 1}), MultiIndex({2: 1})) == 0


def test_enumerate_sub_multiindices():
    assert list(enumerate_sub_multiindices(EMPTY)) == [(EMPTY, EMPTY)]
    two = list(enumerate_sub_multiindices(MultiIndex({1: 1})))
    assert two == [(EMPTY, MultiIndex({1: 1})), (MultiIndex({1: 1}), EMPTY)]
    four = list(enumerate_sub_multiindices(MultiIndex({1: 1, 2: 1})))
    assert len(four) == 4
    for left, right in four:
        assert left + right == MultiIndex({1: 1, 2: 1})
    # deterministic order
    again = list(enumerate_sub_multiindices(MultiIndex({1: 1, 2: 1})))
    assert four == again


def _reference_sub_multiindices(b: MultiIndex) -> list:
    positions = [i for i, _ in b.entries]
    pairs = []
    for choice in product(*(range(m + 1) for _, m in b.entries)):
        left = MultiIndex(zip(positions, choice))
        pairs.append((left, b - left))
    return pairs


def test_split_memo_matches_reference_and_interns():
    """For every b of weight <= 8 the memoized splits equal a direct
    enumeration, pair for pair and in order, and equal multi-indices from
    any two calls are one object, so the memo holds no duplicates."""
    seen = {}
    for b in multiindices_up_to_weight(8):
        expected = _reference_sub_multiindices(b)
        for query in (b, MultiIndex(b.entries)):
            got = enumerate_sub_multiindices(query)
            assert list(got) == expected, b
            for m in (m for pair in got for m in pair):
                assert seen.setdefault(m.entries, m) is m, (b, m)
    assert seen[()] is EMPTY


@given(st.sampled_from(multiindices_up_to_weight(8)))
def test_split_pairs_and_their_binomials(b):
    """The recursion's kappa splits: b has prod(b_i + 1) split pairs
    (L, R), + and - undo each other on each, and for every e <= R the
    product binom(b, L) binom(R, e) is the multinomial b!/(L! e! (R-e)!)."""
    pairs = enumerate_sub_multiindices(b)
    assert len(pairs) == prod(m + 1 for _, m in b.entries)
    for left, right in pairs:
        assert left + right == b and b - left == right
        lmap = dict(left.entries)
        for e, _ in enumerate_sub_multiindices(right):
            emap = dict(e.entries)
            multinomial = 1
            for i, bi in b.entries:
                li, ei = lmap.get(i, 0), emap.get(i, 0)
                multinomial *= factorial(bi) // (
                    factorial(li) * factorial(ei) * factorial(bi - li - ei))
            assert (multiindex_binomial(b, left)
                    * multiindex_binomial(right, e)) == multinomial, (b, left, e)


@given(st.lists(st.integers(0, 4), max_size=7).map(
    lambda v: tuple(sorted(v, reverse=True))))
def test_multiset_splits_count_labeled_subsets(values):
    """ways(part, rest) is the number of position subsets that select part."""
    labeled = Counter()
    for k in range(len(values) + 1):
        for chosen in combinations(range(len(values)), k):
            part = tuple(values[i] for i in chosen)
            rest = tuple(v for i, v in enumerate(values) if i not in chosen)
            labeled[part, rest] += 1
    splits = list(multiset_splits(values))
    assert len(splits) == len(labeled)
    assert {(part, rest): ways for part, rest, ways in splits} == labeled


_MULTIPLICITIES = st.dictionaries(st.integers(1, 4), st.integers(0, 3))


@given(_MULTIPLICITIES, _MULTIPLICITIES)
def test_multiindex_sum_and_difference_match_dict_arithmetic(a, b):
    """a + b adds multiplicities slot by slot and - undoes it; a - b is
    the slotwise difference, and raises ValueError exactly when some b_i
    exceeds a_i."""
    ma, mb = MultiIndex(a), MultiIndex(b)
    slots = set(a) | set(b)
    total = {i: a.get(i, 0) + b.get(i, 0) for i in slots}
    assert ma + mb == MultiIndex(total)
    assert (ma + mb) - mb == ma
    if any(b.get(i, 0) > a.get(i, 0) for i in slots):
        with pytest.raises(ValueError):
            ma - mb
    else:
        assert ma - mb == MultiIndex({i: a.get(i, 0) - b.get(i, 0)
                                      for i in slots})


@given(st.lists(st.integers(-3, 5), max_size=9).map(lambda v: tuple(sorted(v))))
def test_runs_encode_a_sorted_tuple(values):
    """runs(v) expands back to v, its counts sum to len(v), and no two
    neighbouring runs share a value."""
    encoded = runs(values)
    assert tuple(v for v, c in encoded for _ in range(c)) == values
    assert sum(c for _, c in encoded) == len(values)
    assert all(c >= 1 for _, c in encoded)
    assert all(x[0] != y[0] for x, y in zip(encoded, encoded[1:]))


def test_multiindices_of_weight():
    assert multiindices_of_weight(0) == [EMPTY]
    w3 = multiindices_of_weight(3)
    assert len(w3) == 3        # partitions of 3
    assert all(m.weight == 3 for m in w3)
    assert len(multiindices_up_to_weight(4)) == 1 + 1 + 2 + 3 + 5


def test_partitions_order_and_negative_total():
    """Descending lexicographic order, zero-padded; a negative total has
    none.  multiindices_of_weight reads its multi-indices off partitions(w, w)
    in the same order."""
    assert partitions(4, 3) == [(4, 0, 0), (3, 1, 0), (2, 2, 0), (2, 1, 1)]
    assert partitions(0, 2) == [(0, 0)]
    assert all(partitions(-t, n) == [] for t in (1, 2, 5) for n in range(5))
    assert multiindices_of_weight(4) == [
        MultiIndex({4: 1}), MultiIndex({3: 1, 1: 1}), MultiIndex({2: 2}),
        MultiIndex({2: 1, 1: 2}), MultiIndex({1: 4})]


class CoefficientFamilyInverse:
    """Inverse of a coefficient family under multi-index convolution: the
    reference that `recursion.alpha_constant`, which inverts gamma alone,
    is checked against.

    Given beta with beta(0) != 0, the inverse alpha is the unique family
    with alpha(0)*beta(0) = 1 and sum_{L+L'=b} alpha(L)*beta(L') = 0 for
    every b != 0.  Values are memoized by multi-index and computed on
    demand, so the family is usable up to any weight bound.
    """

    def __init__(self, beta):
        self._beta = beta
        b0 = beta(EMPTY)
        if b0 == 0:
            raise ValueError("family has beta(0) = 0; no inverse exists")
        self._cache = {EMPTY: Fraction(1, 1) / b0}

    def __call__(self, b: MultiIndex) -> Fraction:
        hit = self._cache.get(b)
        if hit is not None:
            return hit
        acc = Fraction(0)
        for left, right in enumerate_sub_multiindices(b):
            if not right:
                continue
            acc += self(left) * self._beta(right)
        val = -acc / self._beta(EMPTY)
        self._cache[b] = val
        return val


def invert_coefficient_family(beta) -> CoefficientFamilyInverse:
    """Memoized inverse family of ``beta`` (see CoefficientFamilyInverse)."""
    return CoefficientFamilyInverse(beta)


def _beta_theorem4(L: MultiIndex) -> Fraction:
    return Fraction((-1) ** L.size,
                    L.factorial() * double_factorial(2 * L.weight + 1))


def test_invert_identity_family():
    indicator = lambda L: Fraction(1) if L == EMPTY else Fraction(0)
    alpha = invert_coefficient_family(indicator)
    assert alpha(EMPTY) == 1
    assert alpha(MultiIndex({1: 1})) == 0
    assert alpha(MultiIndex({2: 3})) == 0


def test_invert_double_factorial_family():
    alpha = invert_coefficient_family(_beta_theorem4)
    assert alpha(MultiIndex({1: 1})) == Fraction(1, 3)
    assert alpha(MultiIndex({2: 1})) == Fraction(1, 15)


def test_invert_rejects_zero_leading_coefficient():
    with pytest.raises(ValueError):
        invert_coefficient_family(lambda L: Fraction(0))


def test_invert_round_trip():
    rng = random.Random(12)

    def beta(L):
        if L == EMPTY:
            return Fraction(3, 2)
        rng2 = random.Random(hash(L.entries) & 0xFFFF)
        return Fraction(rng2.randint(-9, 9), rng2.randint(1, 7))

    alpha = invert_coefficient_family(beta)
    beta_back = invert_coefficient_family(alpha)
    for w in range(6):
        for m in multiindices_of_weight(w):
            assert beta_back(m) == beta(m)
    # convolution identity on random indices
    for m in multiindices_up_to_weight(5):
        conv = sum((alpha(l) * beta(r)
                    for l, r in enumerate_sub_multiindices(m)),
                   Fraction(0))
        assert conv == (1 if m == EMPTY else 0)


def test_fractions_stay_reduced_under_fuzz():
    rng = random.Random(99)
    vals = [Fraction(rng.randint(-60, 60), rng.randint(1, 60))
            for _ in range(40)]
    acc = Fraction(1, 3)
    for v in vals:
        acc = acc * v + Fraction(1, 7) if v else acc - v
        assert acc.denominator >= 1
        assert gcd(abs(acc.numerator), acc.denominator) == 1
