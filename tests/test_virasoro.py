import gc
import random
import weakref
from fractions import Fraction

import pytest

from taukappa.core import EMPTY, MultiIndex, genus_for_dimension
from taukappa.series import (EMPTY_MONO, TruncatedSeries, format_monomial,
                             mono_mul, mono_splits)
from taukappa.virasoro import (V0_CONSTANT, VirasoroOperator,
                               build_partition_function, commutator_check,
                               kdv_residual, mixed_generating_series,
                               p_polynomial, substitution_check,
                               virasoro_residual_report)
from taukappa.recursion import RecursionEngine, gamma_constant

K1 = MultiIndex({1: 1})


def _mono(tpairs=(), spairs=()):
    return (tuple(sorted(tpairs)), tuple(sorted(spairs)))


def test_gamma_values():
    assert gamma_constant(EMPTY) == 1
    assert gamma_constant(K1) == Fraction(-1, 3)
    assert gamma_constant(MultiIndex({1: 2})) == Fraction(1, 30)


def test_monomial_helpers():
    m = _mono([(0, 2), (3, 1)], [(1, 1)])
    # t0^2 t3 s1 has degree 4 on 3 points: 4/3 is not a genus; without s1
    # the degree is 3, genus 1
    assert genus_for_dimension(4, 3) is None
    assert genus_for_dimension(3, 3) == 1
    splits = list(mono_splits(m))
    assert len({d for d, _ in splits}) == len(splits) == 3 * 2 * 2
    assert all(mono_mul(d, q) == m for d, q in splits)
    assert format_monomial(m) == "t0^2*t3*s1"
    assert mono_mul(m, _mono([(0, 1)])) == _mono([(0, 3), (3, 1)], [(1, 1)])


def test_no_stored_monomial_outside_admission():
    s = TruncatedSeries({_mono([(0, 1)]): Fraction(1),
                         _mono([(1, 1)]): Fraction(7)},
                        admitted={_mono([(0, 1)])})
    assert _mono([(1, 1)]) not in s.terms       # corrupted value dropped
    assert s.coefficient(_mono([(0, 1)])) == 1
    assert not s.is_admitted(_mono([(1, 1)]))


def test_series_arithmetic_and_admission():
    a = TruncatedSeries({_mono([(0, 1)]): Fraction(1)})
    b = TruncatedSeries({_mono([(0, 1)]): Fraction(-1),
                         _mono([(1, 1)]): Fraction(2)})
    s = a + b
    assert s.coefficient(_mono([(0, 1)])) == 0
    assert s.coefficient(_mono([(1, 1)])) == 2
    assert s.admitted is None
    # truncated + exact keeps the truncated admission
    t = TruncatedSeries({_mono([(0, 1)]): Fraction(1)},
                        admitted={_mono([(0, 1)])})
    assert (t + a).admitted == frozenset({_mono([(0, 1)])})


def _act(k, tpairs=()):
    """V_k applied to the exact one-monomial series t^tpairs."""
    return VirasoroOperator(k).apply(
        TruncatedSeries({_mono(tpairs): Fraction(1)}))


def test_operator_action_matches_displayed_groups():
    one = EMPTY_MONO
    # (a), L = 0 branch: -1/2 * 3!! * gamma_0 d/dt_1
    assert _act(0, [(1, 1)]).coefficient(one) == Fraction(-3, 2)
    # (a), L = kappa_1 branch carries gamma_{(1)} = -1/3 and target t_2
    assert (_act(0, [(2, 1)]).coefficient(_mono(spairs=[(1, 1)]))
            == Fraction(-1, 2) * 15 * Fraction(-1, 3))
    # (d) at k = 0: the constant 1/16, which also adds to every t_j
    assert _act(0).terms == {one: V0_CONSTANT}
    # (b) scaling branch (2j+1)/2 t_j d/dt_j
    assert [(j, _act(0, [(j, 1)]).coefficient(_mono([(j, 1)]))
             - V0_CONSTANT) for j in range(3)] == [
        (0, Fraction(1, 2)), (1, Fraction(3, 2)), (2, Fraction(5, 2))]
    # (d) at k = -1: t_0^2 / 4
    assert _act(-1).terms == {_mono([(0, 2)]): Fraction(1, 4)}
    # (c) at k = 2: 1/4 1!! 3!! d^2/dt_0 dt_1 for (d1, d2) = (0, 1) and
    # (1, 0), and no pair with d1 = d2
    assert _act(2, [(0, 1), (1, 1)]).terms == {one: 2 * Fraction(3, 4)}
    assert not _act(2, [(0, 2)]).terms and not _act(2, [(1, 2)]).terms


def test_v1_kills_constants():
    one = TruncatedSeries({EMPTY_MONO: Fraction(1)})
    assert not VirasoroOperator(1).apply(one).terms


def test_generating_series_known_coefficients():
    eng = RecursionEngine()
    G = mixed_generating_series(0, 3, 0, eng)
    assert G.coefficient(_mono([(0, 3)])) == Fraction(1, 6)   # <tau_0^3>/3!
    G = mixed_generating_series(1, 1, 0, eng)
    assert G.coefficient(_mono([(1, 1)])) == Fraction(1, 24)
    G = mixed_generating_series(2, 0, 3, eng)
    assert G.coefficient(_mono([], [(1, 3)])) == Fraction(43, 2880 * 6)
    # the pure-s1 coefficient vanishes: no stable unmarked surface carries it
    G = mixed_generating_series(1, 0, 1, eng)
    assert G.coefficient(_mono([], [(1, 1)])) == 0
    assert G.is_admitted(_mono([], [(1, 1)]))


def test_virasoro_annihilates_partition_function():
    eng = RecursionEngine()
    Z = build_partition_function(1, 4, 0, eng)
    for k in (-1, 0, 1):
        nonzero, checked = virasoro_residual_report(k, Z)
        assert nonzero == [] and checked > 0, k
    Z = build_partition_function(2, 3, 1, eng)
    for k in (-1, 0, 1, 2):
        nonzero, checked = virasoro_residual_report(k, Z)
        assert nonzero == [] and checked > 0, k


def test_empty_monomial_is_admitted_and_zero():
    """The t_1 and constant contributions cancel only with the 1/16 term."""
    Z = build_partition_function(1, 2, 0, RecursionEngine())
    image = VirasoroOperator(0).apply(Z)
    assert image.is_admitted(EMPTY_MONO)
    assert image.coefficient(EMPTY_MONO) == 0


def _random_probe(rng):
    terms = {}
    for _ in range(6):
        tpart = tuple(sorted({i: rng.randint(1, 2) for i in
                              rng.sample(range(5), rng.randint(0, 2))}.items()))
        spart = tuple(sorted({j: rng.randint(1, 2) for j in
                              rng.sample([1, 2], rng.randint(0, 1))}.items()))
        terms[(tpart, spart)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return TruncatedSeries(terms)


def test_commutators_on_probes():
    rng = random.Random(7)
    assert not commutator_check(0, 0, _random_probe(rng)).terms
    assert not commutator_check(1, -1, _random_probe(rng)).terms
    probe = TruncatedSeries({_mono([(0, 1), (1, 1)]): Fraction(1)})
    assert not commutator_check(2, 1, probe).terms
    for n in range(-1, 4):
        for m in range(-1, n):
            assert not commutator_check(n, m, _random_probe(rng)).terms, (n, m)


def test_virasoro_operator_is_linear():
    rng = random.Random(23)
    for k in (-1, 0, 2):
        x, y = _random_probe(rng), _random_probe(rng)
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
        lhs = VirasoroOperator(k).apply(x.scaled(a) + y.scaled(b))
        rhs = VirasoroOperator(k).apply(x).scaled(a) + VirasoroOperator(k).apply(y).scaled(b)
        assert not (lhs - rhs).terms


def test_p_polynomials():
    assert p_polynomial(2) == {K1: Fraction(1)}
    p3 = p_polynomial(3)
    assert p3[MultiIndex({2: 1})] == 1
    assert p3[MultiIndex({1: 2})] == Fraction(-1, 2)
    assert p_polynomial(4)[MultiIndex({1: 3})] == Fraction(1, 6)
    with pytest.raises(ValueError):
        p_polynomial(1)


def test_substitution_spot_coefficients():
    eng = RecursionEngine()
    res = substitution_check(2, 1, 3, eng)
    assert res.nonzero_admitted() == []
    direct = mixed_generating_series(2, 1, 3, eng)
    # s1 t0 block: <kappa_1 tau_0>_1 = 1/24 on both sides
    assert direct.coefficient(_mono([(0, 1)], [(1, 1)])) == Fraction(1, 24)
    assert res.is_admitted(_mono([(0, 1)], [(1, 1)]))
    # pure kappa block: <kappa_1^3>_2 / 3!
    assert direct.coefficient(_mono([], [(1, 3)])) == Fraction(43, 2880 * 6)
    assert res.is_admitted(_mono([], [(1, 3)]))


def test_substitution_residual_small():
    eng = RecursionEngine()
    res = substitution_check(2, 2, 2, eng)
    assert res.nonzero_admitted() == []
    assert len(res.admitted) > 50
    assert res.is_admitted(_mono([(0, 1), (1, 1)]))
    # t0^3 needs three insertions: inside the nmax = 3 region instead
    res = substitution_check(2, 3, 1, eng)
    assert res.nonzero_admitted() == []
    assert res.is_admitted(_mono([(0, 3)]))


def test_kdv_residual():
    res = kdv_residual(2, 6, RecursionEngine())
    assert res.nonzero_admitted() == []
    assert len(res.admitted) > 5
    empty = TruncatedSeries({})
    quad = empty.mul(empty.derivative(0))
    assert not (empty.derivative(1) - quad).terms



def test_applied_operators_are_freed_without_the_cycle_collector():
    """An operator holds no reference cycle: once applied and deleted, it
    is freed by reference counting alone."""
    Z = build_partition_function(2, 3, 1, RecursionEngine())
    refs = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for k in range(-1, 4):
            op = VirasoroOperator(k)
            op.apply(Z)
            refs.append(weakref.ref(op))
            del op
        assert [ref() for ref in refs] == [None] * 5
    finally:
        if was_enabled:
            gc.enable()
