import random
from fractions import Fraction
from math import factorial

import pytest

from taukappa.npoint import (NPointEngine, ONE_POINT_ATOM, TWO_POINT_ATOM,
                             delta_polynomial, normalized_component,
                             npoint_crosscheck_theorem3, p_r_polynomial,
                             two_point_p0_numerator)
from taukappa.poly import (HomogeneousPolynomial, SymmetricPoly,
                           divide_by_variable_sum)
from taukappa.core import double_factorial


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


def test_delta_polynomial_small():
    assert not delta_polynomial(1)          # identically zero
    d2 = delta_polynomial(2)
    assert d2.coefficient((2, 1)) == 1 and d2.coefficient((1, 2)) == 1
    assert len(d2.terms) == 2
    d3 = delta_polynomial(3)
    assert d3.coefficient((1, 1, 1)) == 2
    assert d3.coefficient((2, 1, 0)) == 1
    assert d3.is_symmetric()


def test_division_by_variable_sum():
    # (x+y)^2 / (x+y) = x+y
    num = SymmetricPoly(2, 2, {(2,): Fraction(1), (1, 1): Fraction(2)})
    q = divide_by_variable_sum(num)
    assert q.classes == {(1,): Fraction(1)}
    # x^2 + y^2 is not divisible
    with pytest.raises(ValueError):
        divide_by_variable_sum(SymmetricPoly(2, 2, {(2,): Fraction(1)}))


def test_p_r_two_variables():
    eng = NPointEngine()
    with pytest.raises(ValueError):
        p_r_polynomial(2, 0, eng)
    assert not p_r_polynomial(2, 1, eng)
    assert not p_r_polynomial(2, 3, eng)
    cert = two_point_p0_numerator()
    assert cert.coefficient((0, 0)) == 1 and len(cert.terms) == 1


def test_p_1_three_variables_closed_form():
    """P_1(x,y,z) = (1/12) [xy(x+y)^2 + yz(y+z)^2 + zx(z+x)^2] / (x+y+z)."""
    got = p_r_polynomial(3, 1, NPointEngine())
    # build the numerator explicitly: sum of (x_i x_j)(x_i+x_j)^2
    terms = {}
    for (i, j) in ((0, 1), (1, 2), (2, 0)):
        for (ei, ej), coef in (((3, 1), 1), ((2, 2), 2), ((1, 3), 1)):
            e = [0, 0, 0]
            e[i], e[j] = ei, ej
            e = tuple(e)
            terms[e] = terms.get(e, 0) + coef
    num = HomogeneousPolynomial(3, 4, terms)
    sym = SymmetricPoly.from_polynomial(num)
    expected = divide_by_variable_sum(sym).scaled(Fraction(1, 12)).expand()
    assert got == expected


def test_p_r_three_variables_printed_formula():
    """P_r(x,y,z) = r!/(2^r (2r+1)!) [sum (x_i x_j)^r (x_i+x_j)^{r+1}] / (sum x)."""
    from math import comb
    eng = NPointEngine()
    for r in range(4):
        got = p_r_polynomial(3, r, eng)
        terms = {}
        for (i, j) in ((0, 1), (1, 2), (2, 0)):
            for t in range(r + 2):
                e = [0, 0, 0]
                e[i], e[j] = r + t, r + (r + 1 - t)
                e = tuple(e)
                terms[e] = terms.get(e, 0) + comb(r + 1, t)
        num = SymmetricPoly.from_polynomial(HomogeneousPolynomial(3, 3 * r + 1, terms))
        scale = Fraction(factorial(r), 2 ** r * factorial(2 * r + 1))
        expected = divide_by_variable_sum(num).scaled(scale).expand()
        assert got == expected, r


def test_p_r_symmetric_and_divisible():
    eng = NPointEngine()
    for n in range(3, 6):
        for r in range(3):
            p = eng.p_poly(n, r)    # construction asserts exact division
            assert p.degree == 3 * r + n - 3


def test_normalized_components():
    eng = NPointEngine()
    g03 = normalized_component(3, 0, eng)
    assert g03.coefficient((0, 0, 0)) == 1 and len(g03.terms) == 1
    g12 = normalized_component(2, 1, eng)
    assert g12.coefficient((1, 1)) == Fraction(1, 12)
    assert not normalized_component(1, 1, eng)      # zero polynomial
    assert normalized_component(1, 0, eng) is ONE_POINT_ATOM
    assert normalized_component(2, 0, eng) is TWO_POINT_ATOM


def test_component_keys():
    from taukappa.npoint import NormalizedComponentKey
    key = NormalizedComponentKey(("x1", "x2"), 1)
    assert not key.is_special
    assert normalized_component(key, None, NPointEngine()).coefficient(
        (1, 1)) == Fraction(1, 12)
    assert NormalizedComponentKey(("x",), 0).is_special
    with pytest.raises(ValueError):
        NormalizedComponentKey((), 2)
    with pytest.raises(ValueError):
        NormalizedComponentKey(("x1", "x2"), -1)


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
    assert npoint_crosscheck_theorem3(0, [0, 0, 0], eng) == 1
    assert npoint_crosscheck_theorem3(1, [0, 2], eng) == Fraction(1, 24)
    assert npoint_crosscheck_theorem3(2, [2, 3], eng) == Fraction(29, 5760)
    with pytest.raises(ValueError):
        npoint_crosscheck_theorem3(1, [1], eng)


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


def test_homogeneous_polynomial_invariants():
    p = HomogeneousPolynomial(2, 3, {(2, 1): Fraction(1), (0, 3): Fraction(-2)})
    q = HomogeneousPolynomial(2, 3, {(2, 1): Fraction(-1)})
    assert (p + q).coefficient((2, 1)) == 0
    assert (p + q).coefficient((0, 3)) == -2
    prod = p * p
    assert prod.degree == 6
    with pytest.raises(ValueError):
        HomogeneousPolynomial(2, 3, {(1, 1): Fraction(1)})
