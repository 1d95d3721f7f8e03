import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import factorial, gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taukappa import npoint
from taukappa.npoint import NPointEngine, _times_delta
from taukappa.poly import (SymmetricPoly, class_key, divide_by_variable_sum,
                           linear_combination, times_power_sum)
from taukappa.core import bucket_sum, double_factorial, multiset_splits
from taukappa.recursion import RecursionEngine


def _partitions(total, slots):
    def rec(rem, left, cap):
        if left == 0:
            if rem == 0:
                yield ()
            return
        for v in range(min(rem, cap), -1, -1):
            for rest in rec(rem - v, left - 1, v):
                yield (v,) + rest
    yield from rec(total, slots, total if total else 1)


def _shape(p):
    return p.nvars, p.degree, p.classes


def _reference_combination(nvars, degree, terms):
    """sum of scalar * poly over the (poly, scalar) terms, one Fraction
    multiply and add per class into a {class: Fraction} dict: the loop
    `SymmetricPoly.add_into` ran before `linear_combination`."""
    classes = {}
    for other, scalar in terms:
        if other.nvars != nvars:
            raise ValueError(f"variable count mismatch: {nvars} vs "
                             f"{other.nvars}")
        if other.classes and other.degree != degree:
            raise ValueError(f"degree mismatch: {degree} vs {other.degree}")
        scalar = Fraction(scalar)
        for k, c in other.classes.items():
            s = classes.get(k, Fraction(0)) + c * scalar
            if s:
                classes[k] = s
            else:
                classes.pop(k, None)
    return SymmetricPoly(nvars, degree, classes)


def _scaled(p, scalar):
    return _reference_combination(p.nvars, p.degree, [(p, scalar)])


def test_delta_power_small():
    eng = NPointEngine()
    assert _shape(eng.delta_power(1, 1)) == (1, 3, {})     # identically zero
    # x^2 y + x y^2
    assert _shape(eng.delta_power(2, 1)) == (2, 3, {(2, 1): 1})
    # the six x_i^2 x_j and 2 xyz
    assert _shape(eng.delta_power(3, 1)) == (3, 3, {(2, 1): 1, (1, 1, 1): 2})


def test_division_by_variable_sum():
    # (x+y)^2 / (x+y) = x+y
    num = SymmetricPoly(2, 2, {(2,): Fraction(1), (1, 1): Fraction(2)})
    q = divide_by_variable_sum(num)
    assert q.classes == {(1,): Fraction(1)}
    # x^2 + y^2 is not divisible
    with pytest.raises(ValueError):
        divide_by_variable_sum(SymmetricPoly(2, 2, {(2,): Fraction(1)}))


def test_p_r_two_variables():
    """The two-point P_r are not engine polynomials: P_0 = 1/(x+y) enters
    only through the certified product (x+y)^2 P_0 = x+y, and P_r = 0 for
    r >= 1 (criterion 03 checks what the direct route builds on that)."""
    eng = NPointEngine()
    for r in range(4):
        with pytest.raises(ValueError):
            eng.p_poly(2, r)
    assert _shape(eng.a_factor(2, 0)) == (2, 1, {(1,): 1})
    assert _shape(eng.a_factor(1, 0)) == (1, 0, {(): 1})


def test_p_1_three_variables_closed_form():
    """P_1(x,y,z) = (1/12) [xy(x+y)^2 + yz(y+z)^2 + zx(z+x)^2] / (x+y+z)."""
    got = NPointEngine().p_poly(3, 1)
    # the numerator by class: x_i^3 x_j once, x_i^2 x_j^2 twice
    num = SymmetricPoly(3, 4, {(3, 1): Fraction(1), (2, 2): Fraction(2)})
    expected = _scaled(divide_by_variable_sum(num), Fraction(1, 12))
    assert _shape(got) == _shape(expected)


def test_p_r_three_variables_printed_formula():
    """P_r(x,y,z) = r!/(2^r (2r+1)!) [sum (x_i x_j)^r (x_i+x_j)^{r+1}] / (sum x)."""
    from math import comb
    eng = NPointEngine()
    for r in range(4):
        # the numerator's coefficient at each class representative e:
        # the pairs {i, j} off which e vanishes, with e_i, e_j >= r
        classes = {}
        for e in _partitions(3 * r + 1, 3):
            c = sum(comb(r + 1, e[i] - r)
                    for i, j in ((0, 1), (0, 2), (1, 2))
                    if e[3 - i - j] == 0 and min(e[i], e[j]) >= r)
            if c:
                classes[class_key(e)] = Fraction(c)
        num = SymmetricPoly(3, 3 * r + 1, classes)
        scale = Fraction(factorial(r), 2 ** r * factorial(2 * r + 1))
        expected = _scaled(divide_by_variable_sum(num), scale)
        assert _shape(eng.p_poly(3, r)) == _shape(expected), r


def test_p_r_symmetric_and_divisible():
    eng = NPointEngine()
    for n in range(3, 6):
        for r in range(3):
            p = eng.p_poly(n, r)    # construction asserts exact division
            assert p.degree == 3 * r + n - 3


def test_polynomial_components():
    eng = NPointEngine()
    assert _shape(eng.component(3, 0)) == (3, 0, {(): 1})
    assert _shape(eng.component(2, 1)) == (2, 2, {(1, 1): Fraction(1, 12)})
    assert _shape(eng.component(1, 1)) == (1, 1, {})     # zero polynomial


def test_component_keys():
    """Only polynomial shapes are components: the Laurent shapes (1, 0)
    and (2, 0) and the invalid ones raise."""
    eng = NPointEngine()
    for n, g in ((1, 0), (2, 0), (0, 2), (2, -1)):
        with pytest.raises(ValueError):
            eng.component(n, g)


def test_two_point_components_match_closed_form():
    """G_g(x,y) = (xy)^g (x+y)^{g-1} / (4^g (2g+1)!!)."""
    from math import comb
    eng = NPointEngine()
    for g in range(1, 5):
        comp = eng.component(2, g)
        scale = Fraction(1, 4 ** g * double_factorial(2 * g + 1))
        for i in range(g):
            key = tuple(sorted((g + i, g + (g - 1 - i)), reverse=True))
            assert comp.get(key) == comb(g - 1, i) * scale


def test_correlator_values():
    eng = NPointEngine()
    assert eng.correlator(1, [1], "normalized") == Fraction(1, 24)
    assert eng.correlator(2, [4], "normalized") == Fraction(1, 1152)
    assert eng.correlator(1, [1, 1], "normalized") == Fraction(1, 24)
    assert eng.correlator(0, [0, 0, 0], "normalized") == 1
    assert eng.correlator(1, [2], "normalized") == 0
    assert eng.correlator(0, [0, 0], "normalized") == 0


def test_theorem3_route():
    eng = NPointEngine()
    assert eng.correlator(0, [0, 0, 0], "direct") == 1
    assert eng.correlator(1, [0, 2], "direct") == Fraction(1, 24)
    assert eng.correlator(2, [2, 3], "direct") == Fraction(29, 5760)
    with pytest.raises(ValueError):     # the direct expansion needs n >= 2
        eng.f_part(1, 1, "direct")


def test_routes_agree():
    eng = NPointEngine()
    for g in range(3):
        for n in range(2, 7):
            dim = 3 * g - 3 + n
            if dim < 0 or dim > 6:
                continue
            for d in _partitions(dim, n):
                assert eng.correlator(g, d, "normalized") == \
                    eng.correlator(g, d, "direct"), (g, d)


def test_correlator_rejects_unknown_route():
    eng = NPointEngine()
    for d in ((1,), (1, 1)):
        with pytest.raises(ValueError, match="unknown route"):
            eng.correlator(1, d, "bogus")


def test_routes_agree_with_recursion_large_genus():
    """recursion == normalized == direct for every pure-psi correlator with
    g = 5..8 and n <= 3: numerators and denominators far beyond the
    dimension-10 grid."""
    eng, rec = NPointEngine(), RecursionEngine()
    count = 0
    for g in range(5, 9):
        for n in range(1, 4):
            for d in _partitions(3 * g - 3 + n, n):
                want = rec.value(g, d)
                assert eng.correlator(g, d, "normalized") == want, (g, d)
                assert eng.correlator(g, d, "direct") == want, (g, d)
                count += 1
    assert count == 217


def test_one_point_closed_form_via_series():
    eng = NPointEngine()
    for g in range(1, 11):
        assert eng.correlator(g, [3 * g - 2], "normalized") == \
            Fraction(1, 24 ** g * factorial(g))


def test_symmetry_of_extraction():
    rng = random.Random(17)
    eng = NPointEngine()
    for g in range(3):
        for _ in range(4):
            n = rng.randint(2, 6)
            dim = 3 * g - 3 + n
            if dim < 0:
                continue
            cuts = sorted(rng.randint(0, dim) for _ in range(n - 1))
            d = [b - a for a, b in zip([0] + cuts, cuts + [dim])]
            ref = eng.correlator(g, tuple(d))
            rng.shuffle(d)
            assert eng.correlator(g, tuple(d)) == ref


def test_genus0_matches_multinomial():
    """The genus-0 normalized function is forced to (sum x)^(n-3)."""
    eng = NPointEngine()
    for n in range(3, 9):
        comp = eng.component(n, 0)
        for key, coef in comp.classes.items():
            mult = factorial(n - 3)
            for p in key:
                mult //= factorial(p)
            assert coef == mult


# -- the run-wise kernel against the position-loop reference ---------------


def _reference_sub_vectors(ev, target_degree):
    """All componentwise 0 <= f <= ev with sum(f) == target_degree."""
    n = len(ev)
    out = []
    cur = [0] * n

    def rec(i, rem):
        if rem < 0:
            return
        if i == n:
            if rem == 0:
                out.append(tuple(cur))
            return
        for v in range(min(ev[i], rem), -1, -1):
            cur[i] = v
            rec(i + 1, rem - v)
        cur[i] = 0

    rec(0, target_degree)
    return out


def _reference_mul(self, other):
    """SymmetricPoly.mul summed over every position vector f <= ev."""
    n = self.nvars
    deg = self.degree + other.degree
    out = {}
    for ev in _partitions(deg, n):
        tot = Fraction(0)
        for f in _reference_sub_vectors(ev, self.degree):
            ca = self.classes.get(class_key(f))
            if not ca:
                continue
            cb = other.classes.get(class_key([e - x for e, x in zip(ev, f)]))
            if cb:
                tot += ca * cb
        if tot:
            out[class_key(ev)] = tot
    return SymmetricPoly(n, deg, out)


def _reference_times_power_sum(poly, k, times=1):
    """poly * (x_1^k + ... + x_n^k)^times as `times` position-loop
    products with the explicitly built power sum."""
    p_k = SymmetricPoly(poly.nvars, k, {(k,): Fraction(1)})
    for _ in range(times):
        poly = _reference_mul(p_k, poly)
    return poly


class _PositionEngine(NPointEngine):
    """a_factor over ordered position pairs (i, j) and p_poly over the
    2^(n-1) subsets I that hold position 0."""

    def a_factor(self, m, r):
        key = (m, r)
        hit = self._afactor.get(key)
        if hit is not None:
            return hit
        if m == 1 or (m == 2 and r == 0):
            val = super().a_factor(m, r)
        else:
            comp = self.component(m, r)
            deg = comp.degree + 2
            classes = {}
            for ev in _partitions(deg, m):
                tot = Fraction(0)
                for i in range(m):
                    for j in range(m):
                        w = list(ev)
                        w[i] -= 1
                        w[j] -= 1
                        if w[i] < 0 or w[j] < 0:
                            continue
                        tot += comp.get(w)
                if tot:
                    classes[class_key(ev)] = tot
            val = SymmetricPoly(m, deg, classes)
        self._afactor[key] = val
        return val

    def p_poly(self, n, r):
        key = (n, r)
        hit = self._p.get(key)
        if hit is not None:
            return hit
        deg_num = 3 * r + n - 2
        classes = {}
        rest = list(range(1, n))
        for ev in _partitions(deg_num, n):
            tot = Fraction(0)
            # degree of the restriction to I, for I = {0} + subset(rest)
            degsum = [0] * (1 << (n - 1))
            for mask in range(1, 1 << (n - 1)):
                low = mask & -mask
                degsum[mask] = degsum[mask ^ low] + ev[rest[low.bit_length() - 1]]
            for mask in range((1 << (n - 1)) - 1):
                m = mask.bit_count() + 1
                r1, rem = divmod(ev[0] + degsum[mask] - m + 1, 3)
                if rem or r1 < 0 or r1 > r:
                    continue
                pos_i = [0] + [rest[t] for t in range(n - 1) if mask >> t & 1]
                a_i = self.a_factor(m, r1).get([ev[i] for i in pos_i])
                if not a_i:
                    continue
                pos_j = [i for i in range(1, n) if i not in pos_i]
                a_j = self.a_factor(n - m, r - r1).get([ev[j] for j in pos_j])
                if a_j:
                    tot += a_i * a_j
            if tot:
                classes[class_key(ev)] = 2 * tot
        num = SymmetricPoly(n, deg_num, classes)
        val = _scaled(divide_by_variable_sum(num), Fraction(1, 2))
        self._p[key] = val
        return val


# every F-part shape (n, g) of dimension 3g + n - 3 <= 10
SHAPES_DIM10 = [(n, g) for n in range(2, 14) for g in range(5)
                if 0 <= 3 * g + n - 3 <= 10 and (n, g) != (2, 0)]


@pytest.fixture(scope="module")
def position_engine():
    """Both routes of every dimension-10 shape on the position-loop kernel."""
    eng = _PositionEngine()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SymmetricPoly, "mul", _reference_mul)
        mp.setattr("taukappa.npoint.times_power_sum",
                   _reference_times_power_sum)
        for n, g in SHAPES_DIM10:
            for route in ("normalized", "direct"):
                eng.f_part(n, g, route)
    return eng


def test_kernel_matches_position_reference(position_engine):
    eng = NPointEngine()
    for n, g in SHAPES_DIM10:
        for route in ("normalized", "direct"):
            assert eng.f_part(n, g, route).classes == \
                position_engine.f_part(n, g, route).classes, (route, n, g)
    # every P_r and split factor the dimension-10 grid reaches
    assert eng._p.keys() == position_engine._p.keys()
    for key, ref in position_engine._p.items():
        assert eng.p_poly(*key).classes == ref.classes, key
    assert eng._afactor.keys() == position_engine._afactor.keys()
    for key, ref in position_engine._afactor.items():
        assert eng.a_factor(*key).classes == ref.classes, key


@st.composite
def symmetric_polys(draw, nvars, degree=None):
    if degree is None:
        degree = draw(st.integers(0, 5))
    classes = {}
    for ev in _partitions(degree, nvars):
        c = draw(st.fractions(min_value=-3, max_value=3, max_denominator=60))
        if c:
            classes[class_key(ev)] = c
    return SymmetricPoly(nvars, degree, classes)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(symmetric_polys(n), symmetric_polys(n))))
def test_mul_matches_position_reference(pair):
    a, b = pair
    got = a.mul(b)
    assert (got.nvars, got.degree) == (a.nvars, a.degree + b.degree)
    assert got.classes == _reference_mul(a, b).classes


def _position_power_sum(n, k, times):
    """(x_1^k + ... + x_n^k)^times: each class counts the position
    sequences (i_1, ..., i_times) whose exponent vector is its sorted
    representative."""
    classes = {}
    for seq in product(range(n), repeat=times):
        ev = [0] * n
        for i in seq:
            ev[i] += k
        if ev == sorted(ev, reverse=True):
            key = class_key(ev)
            classes[key] = classes.get(key, 0) + Fraction(1)
    return SymmetricPoly(n, k * times, classes)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    symmetric_polys(n), st.integers(1, 3), st.integers(0, 3))))
def test_times_power_sum_matches_position_reference(drawn):
    p, k, times = drawn
    got = times_power_sum(p, k, times)
    want = _reference_mul(p, _position_power_sum(p.nvars, k, times))
    assert _shape(got) == _shape(want)
    assert all(got.classes.values())


def _position_delta(n):
    """Delta = ((sum x)^3 - sum x^3)/3 on n variables, built as classes:
    x_i^2 x_j for i != j, and 2 x_i x_j x_k for i < j < k."""
    return SymmetricPoly(n, 3, {k: Fraction(c) for k, c in
                                (((2, 1), 1), ((1, 1, 1), 2)) if len(k) <= n})


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6).flatmap(symmetric_polys))
def test_times_delta_matches_position_reference(p):
    got = _times_delta(p)
    assert _shape(got) == _shape(_reference_mul(p, _position_delta(p.nvars)))
    assert all(got.classes.values())


def test_times_delta_rejects_a_remainder_mod_3(monkeypatch):
    """e1^3 f - p3 f = 3 (e1 e2 - e3) f, so a remainder mod 3 can only come
    from a wrong power-sum pass, and the Delta step raises on it."""
    push = npoint._push_power_sum

    def off_by_one(ints, nvars, k):
        out = push(ints, nvars, k)
        if k == 3:
            out[next(iter(out))] += 1
        return out

    monkeypatch.setattr(npoint, "_push_power_sum", off_by_one)
    with pytest.raises(ValueError, match="not divisible by 3"):
        NPointEngine().delta_power(3, 1)


def test_constructor_rejects_unsorted_classes_and_drops_zeros():
    """A class key must be its own `class_key`: an unsorted key or one with
    a zero entry would never be found by `get`."""
    for key in [(1, 2), (2, 1, 0)]:
        with pytest.raises(ValueError, match="not a sorted class"):
            SymmetricPoly(3, 3, {key: Fraction(1)})
    zero = SymmetricPoly(2, 1, {(1,): Fraction(0)})
    assert not zero
    assert (zero.den, zero.ints, zero.classes) == (1, {}, {})


@st.composite
def class_dicts(draw):
    """(nvars, degree, {class: Fraction}) with every class present, zeros
    included."""
    nvars, degree = draw(st.integers(1, 6)), draw(st.integers(0, 5))
    return nvars, degree, {
        class_key(ev): draw(st.fractions(min_value=-3, max_value=3,
                                         max_denominator=60))
        for ev in _partitions(degree, nvars)}


@settings(max_examples=60, deadline=None)
@given(class_dicts(), st.integers(-6, 6).filter(bool))
def test_constructor_stores_reduced_integers(drawn, scale):
    """The stored integers over `den` are the input without its zeros,
    den is the lcm of the denominators and shares no factor with every
    entry, and `from_ints` reduces a scaled copy to the same form."""
    nvars, degree, classes = drawn
    p = SymmetricPoly(nvars, degree, classes)
    assert p.classes == {k: c for k, c in classes.items() if c}
    assert p.den == lcm(*(c.denominator for c in classes.values()))
    assert gcd(p.den, *p.ints.values()) == 1 and all(p.ints.values())
    q = SymmetricPoly.from_ints(nvars, degree, abs(scale) * p.den, {
        k: abs(scale) * c for k, c in p.ints.items()})
    assert (q.den, q.ints) == (p.den, p.ints)


def _full_sort_push_power_sum(ints, nvars, k):
    """The power-sum pass that sorted each target key in full."""
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


@st.composite
def class_ints(draw):
    """(nvars, {class: int}, k) on small entries, so that a raised entry
    often lands on an equal neighbour; keys may be shorter than nvars."""
    nvars = draw(st.integers(1, 6))
    keys = st.lists(st.integers(1, 4), max_size=nvars).map(
        lambda v: tuple(sorted(v, reverse=True)))
    ints = draw(st.dictionaries(keys, st.integers(-5, 5), max_size=6))
    return nvars, ints, draw(st.integers(1, 3))


@settings(max_examples=100, deadline=None)
@given(class_ints())
@example((2, {(3, 1): 1}, 2))
@example((4, {(3, 1): 2, (2, 2): -1, (): 3}, 2))
def test_push_power_sum_matches_full_sort(drawn):
    nvars, ints, k = drawn
    assert (npoint._push_power_sum(ints, nvars, k)
            == _full_sort_push_power_sum(ints, nvars, k))


def test_mul_rejects_mismatched_nvars():
    xyz = SymmetricPoly(3, 1, {(1,): Fraction(1)})
    xy = SymmetricPoly(2, 1, {(1,): Fraction(1)})
    with pytest.raises(ValueError, match="variable count"):
        xyz.mul(xy)


def test_linear_combination_rejects_mismatched_nvars():
    xyz = SymmetricPoly(3, 1, {(1,): Fraction(1)})
    with pytest.raises(ValueError, match="variable count"):
        linear_combination(3, 1, [(xyz, 1),
                                  (SymmetricPoly(2, 1, {(1,): Fraction(1)}), 1)])
    assert xyz.classes == {(1,): Fraction(1)}


def test_linear_combination_rejects_mismatched_degree():
    xyz = SymmetricPoly(3, 1, {(1,): Fraction(1)})
    with pytest.raises(ValueError, match="degree mismatch"):
        linear_combination(3, 1, [(xyz, 1),
                                  (SymmetricPoly(3, 2, {(2,): Fraction(1)}), 1)])
    assert xyz.classes == {(1,): Fraction(1)}
    # a zero polynomial has no classes to misplace, as in the Fraction loop
    got = linear_combination(3, 1, [(xyz, 2), (SymmetricPoly(3, 2), 1)])
    assert got.classes == {(1,): Fraction(2)}


@st.composite
def combination_terms(draw):
    """(nvars, degree, terms): polynomials over mixed denominators, some
    scalars zero, and on request every term again with its scalar negated,
    so that the whole sum cancels to the empty polynomial."""
    nvars = draw(st.integers(1, 5))
    degree = draw(st.integers(0, 5))
    scalars = st.one_of(st.just(Fraction(0)),
                        st.fractions(min_value=-5, max_value=5,
                                     max_denominator=90))
    terms = draw(st.lists(st.tuples(symmetric_polys(nvars, degree), scalars),
                          max_size=5))
    if draw(st.booleans()):
        terms += [(p, -c) for p, c in terms]
    return nvars, degree, terms


_P = SymmetricPoly(3, 2, {(2,): Fraction(1, 6), (1, 1): Fraction(-3, 4)})
_Q = SymmetricPoly(3, 2, {(2,): Fraction(1, 10)})


@settings(max_examples=60, deadline=None)
@given(combination_terms())
@example((3, 2, []))
@example((3, 2, [(_P, Fraction(2, 3)), (_Q, 0), (_P, Fraction(-2, 3))]))
def test_linear_combination_matches_fraction_reference(drawn):
    nvars, degree, terms = drawn
    want = _reference_combination(nvars, degree, terms)
    got = linear_combination(nvars, degree, iter(terms))
    assert _shape(got) == _shape(want)
    assert all(got.classes.values())


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(symmetric_polys(n), st.data())))
def test_exact_division_roundtrip(drawn):
    """(p * (x_1 + ... + x_n)) / (x_1 + ... + x_n) == p, and adding a class
    of the product that is not a multiple makes the division raise."""
    p, data = drawn
    n = p.nvars
    prod = _reference_mul(p, SymmetricPoly(n, 1, {(1,): Fraction(1)}))
    q = divide_by_variable_sum(prod)
    assert (q.nvars, q.degree, q.classes) == (n, p.degree, p.classes)
    # a monomial symmetric function whose two largest exponents are equal
    # is never a multiple: the triangular solve reads only classes with a
    # strictly largest exponent, so its quotient would be zero
    ties = [class_key(ev) for ev in _partitions(prod.degree, n)
            if n >= 2 and ev[0] == ev[1]]
    if not ties:
        return
    key = data.draw(st.sampled_from(ties))
    c = data.draw(st.fractions(min_value=-3, max_value=3,
                               max_denominator=60).filter(bool))
    prod = linear_combination(n, prod.degree, [
        (prod, 1), (SymmetricPoly(n, prod.degree, {key: c}), 1)])
    with pytest.raises(ValueError, match="not divisible"):
        divide_by_variable_sum(prod)


class _UnfilteredSplitEngine(NPointEngine):
    """p_poly over every split `core.multiset_splits` yields, each tested
    for an admissible first-factor genus only after its tuples are built."""

    def p_poly(self, n, r):
        key = (n, r)
        hit = self._p.get(key)
        if hit is not None:
            return hit
        deg_num = 3 * r + n - 2
        classes = {}
        for ev in _partitions(deg_num, n):
            acc = {}
            for part, rest, ways in multiset_splits(ev[1:]):
                if not rest:
                    continue
                m = len(part) + 1
                d_i = ev[0] + sum(part)
                r1, rem = divmod(d_i - m + 1, 3)
                if rem or r1 < 0 or r1 > r:
                    continue
                a_i = self.a_factor(m, r1).classes.get(class_key((ev[0],) + part))
                if not a_i:
                    continue
                a_j = self.a_factor(n - m, r - r1).classes.get(class_key(rest))
                if a_j:
                    den = a_i.denominator * a_j.denominator
                    acc[den] = (acc.get(den, 0)
                                + ways * a_i.numerator * a_j.numerator)
            tot = bucket_sum(acc)
            if tot:
                classes[class_key(ev)] = tot
        val = divide_by_variable_sum(SymmetricPoly(n, deg_num, classes))
        self._p[key] = val
        return val


# every P_r that `verify engines --dmax 10` builds (3r + n - 3 <= 10), every
# r <= 3 for n <= 7, and n = 8..10 at r <= 2
P_KEYS = [(n, r) for n in range(3, 14) for r in range(4)
          if 3 * r + n - 3 <= 10 or n <= 7 or (n <= 10 and r <= 2)]


def test_p_poly_matches_unfiltered_splits():
    eng, ref = NPointEngine(), _UnfilteredSplitEngine()
    for key in P_KEYS:
        assert _shape(eng.p_poly(*key)) == _shape(ref.p_poly(*key)), key


def test_p_poly_asks_for_each_factor_pair_once():
    """On a warm factor cache one P_r calls `a_factor` at most twice per
    size m of I and genus r1 of its factor: 2 (n - 1)(r + 1) calls."""
    warm = NPointEngine()
    for key in P_KEYS:
        warm.p_poly(*key)
    for n, r in P_KEYS:
        eng = _CountingEngine()
        eng._afactor.update(warm._afactor)
        assert eng.p_poly(n, r).classes == warm.p_poly(n, r).classes
        assert eng.calls.keys() == {"p_poly", "a_factor"}, (n, r)
        assert eng.calls["a_factor"] <= 2 * (n - 1) * (r + 1), (n, r)


def _dict_mul(p, q):
    """Product of two-variable polynomials held as {(a, b): coefficient}."""
    out = {}
    for (a, b), c in p.items():
        for (e, f), d in q.items():
            out[a + e, b + f] = out.get((a + e, b + f), 0) + c * d
    return out


def test_dijkgraaf_two_point_function():
    """Every <tau_a tau_b>_g with g <= 25 against Dijkgraaf's two-point
    function exp((x^3+y^3)/24)/(x+y) sum_n n!/(2n+1)! (xy(x+y)/2)^n
    (R. Dijkgraaf, "Intersection theory, integrable hierarchies and
    topological field theory", 1992), built on dict polynomials that share
    no code with `poly`.  Genus g is the part of degree 3g-1."""
    gmax = 25
    cube = {(3, 0): Fraction(1, 24), (0, 3): Fraction(1, 24)}
    half_delta = {(2, 1): Fraction(1, 2), (1, 2): Fraction(1, 2)}
    # exp_parts[k] = ((x^3+y^3)/24)^k / k!, sum_parts[n] = n!/(2n+1)! (...)^n
    exp_parts, sum_parts = [{(0, 0): Fraction(1)}], [{(0, 0): Fraction(1)}]
    for k in range(1, gmax + 1):
        exp_parts.append({m: c / k for m, c
                          in _dict_mul(exp_parts[-1], cube).items()})
        sum_parts.append({m: c / (2 * (2 * k + 1)) for m, c
                          in _dict_mul(sum_parts[-1], half_delta).items()})
    eng = NPointEngine()
    checked = 0
    for g in range(1, gmax + 1):
        top = 3 * g
        num = {}
        for k in range(g + 1):
            for m, c in _dict_mul(exp_parts[k], sum_parts[g - k]).items():
                num[m] = num.get(m, 0) + c
        # num / (x + y), solved from the y^top end; the x^top end checks it
        quo = {}
        for a in range(top):
            quo[a, top - 1 - a] = (num.get((a, top - a), 0)
                                   - quo.get((a - 1, top - a), 0))
        assert quo[top - 1, 0] == num.get((top, 0), 0), g
        for (a, b), c in quo.items():
            assert eng.correlator(g, (a, b)) == c, (g, a, b)
            checked += 1
    assert checked == 975


class _CountingEngine(NPointEngine):
    """Counts the calls to each cached public method, then defers to it."""

    def __init__(self):
        super().__init__()
        self.calls = Counter()

    def component(self, n, g):
        self.calls["component"] += 1
        return super().component(n, g)

    def delta_power(self, n, s):
        self.calls["delta_power"] += 1
        return super().delta_power(n, s)

    def p_delta(self, n, r, s):
        self.calls["p_delta"] += 1
        return super().p_delta(n, r, s)

    def a_factor(self, m, r):
        self.calls["a_factor"] += 1
        return super().a_factor(m, r)

    def p_poly(self, n, r):
        self.calls["p_poly"] += 1
        return super().p_poly(n, r)

    def f_part(self, n, g, route="normalized"):
        self.calls["f_part"] += 1
        return super().f_part(n, g, route)


def test_cached_values_are_built_through_the_public_methods():
    """Every value a cache builds asks the public methods for its parts,
    hits included, so an override such as `_PositionEngine`'s is used for
    all of them and the reference tests compare two kernels, not one."""
    eng, plain = _CountingEngine(), NPointEngine()
    for route in ("normalized", "direct"):
        for n in (5, 2):
            assert eng.f_part(n, 2, route).classes == \
                plain.f_part(n, 2, route).classes, (route, n)
    assert eng.calls == {"f_part": 4, "component": 11, "p_delta": 33,
                         "p_poly": 9, "a_factor": 61, "delta_power": 10}
