"""Acceptance gate: every criterion is exact (zero tolerance) and timed.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  All arithmetic is rational, so equality assertions are exact;
the time budgets are asserted as stated.
"""

import random
import time
from fractions import Fraction
from math import factorial

from taukappa.core import (EMPTY, MultiIndex, double_factorial,
                           enumerate_sub_multiindices, multiindices_of_weight)
from taukappa.denominators import (check_iz_fixture, check_lemma20,
                                   check_proposition17, compute_D,
                                   compute_script_D)
from taukappa.identities import (check_theorem7, check_theorem8,
                                 identity_grid, run_identity)
from taukappa.npoint import NPointEngine
from taukappa.poly import SymmetricPoly, class_key, divide_by_variable_sum
from taukappa.recursion import RecursionEngine, alpha_constant, gamma_constant
from taukappa.series import TruncatedSeries
from taukappa.virasoro import (build_partition_function, commutator_check,
                               p_polynomial, substitution_check,
                               virasoro_residual_report)


def _report(num, label, t0, budget):
    elapsed = time.time() - t0
    print(f"PASS criterion {num}: {label} ({elapsed:.2f}s, budget {budget}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


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


def test_criterion_01_one_point_closed_form():
    t0 = time.time()
    npe = NPointEngine()
    for g in range(1, 11):
        assert npe.correlator(g, [3 * g - 2], "normalized") == \
            Fraction(1, 24 ** g * factorial(g)), g
    _report(1, "one-point values 1/(24^g g!) for g = 1..10", t0, 10)


def test_criterion_02_triple_engine_agreement():
    t0 = time.time()
    eng = RecursionEngine()
    npe = NPointEngine()
    checked = 0
    for g in range(5):
        for n in range(1, 13):
            dim = 3 * g - 3 + n
            if dim < 0 or dim > 9 or 2 * g - 2 + n <= 0:
                continue
            for d in _partitions(dim, n):
                a = eng.value(g, d)
                b = npe.correlator(g, d, "normalized")
                assert a == b, (g, d)
                if n >= 2:
                    assert b == npe.correlator(g, d, "direct"), (g, d)
                checked += 1
    assert checked > 200
    _report(2, f"three routes agree on {checked} correlators with "
               "3g-3+n <= 9", t0, 120)


def test_criterion_03_two_and_three_point_forms():
    t0 = time.time()
    npe = NPointEngine()
    # two points: the direct route assumes (x+y) P_0 = 1 and P_r = 0 for
    # r >= 1; the normalized route assumes neither, and they agree
    for g in range(1, 6):
        direct = npe.f_part(2, g, "direct")
        normalized = npe.f_part(2, g, "normalized")
        assert (direct.nvars, direct.degree, direct.classes) == \
            (normalized.nvars, normalized.degree, normalized.classes), g
        assert direct.classes, g
    # three points: P_r equals the printed closed form
    # r!/(2^r (2r+1)!) [sum_{i<j} (x_i x_j)^r (x_i+x_j)^{r+1}] / (x+y+z)
    # for r <= 3, its numerator built class by class
    from math import comb
    for r in range(4):
        scale = Fraction(factorial(r), 2 ** r * factorial(2 * r + 1))
        classes = {}
        for e in _partitions(3 * r + 1, 3):
            c = sum(comb(r + 1, e[i] - r)
                    for i, j in ((0, 1), (0, 2), (1, 2))
                    if e[3 - i - j] == 0 and min(e[i], e[j]) >= r)
            if c:
                classes[class_key(e)] = c * scale
        num = SymmetricPoly(3, 3 * r + 1, classes)
        want = divide_by_variable_sum(num)
        got = npe.p_poly(3, r)
        assert (got.nvars, got.degree, got.classes) == \
            (want.nvars, want.degree, want.classes), r
    _report(3, "printed 2- and 3-point P_r forms, r <= 3", t0, 10)


def test_criterion_04_identity_suite():
    t0 = time.time()
    eng = RecursionEngine()
    counts = {}
    for name in ("thm7", "thm8", "prop9", "thm10", "prop11", "thm12"):
        n_checked = 0
        for params in identity_grid(name, 3, 4, bmax=2):
            rep = run_identity(name, params, eng)
            assert rep.residual == 0, (name, params, rep.residual)
            n_checked += 1
        counts[name] = n_checked
    assert all(v > 10 for v in counts.values())
    # the advertised part-2 closed-form values
    assert check_theorem8(1, [1], 2, eng).rhs == Fraction(1, 12)
    assert check_theorem7(1, [2], 2, eng).rhs == Fraction(1, 3)
    total = sum(counts.values())
    _report(4, f"{total} identity instances hold exactly on "
               "g <= 3, n <= 4, |b| <= 2", t0, 300)


def test_criterion_05_alpha_gamma_machinery():
    t0 = time.time()
    assert alpha_constant(EMPTY) == 1
    assert alpha_constant(MultiIndex({1: 1})) == Fraction(1, 3)
    assert alpha_constant(MultiIndex({2: 1})) == Fraction(1, 15)
    for w in range(1, 9):
        for b in multiindices_of_weight(w):
            acc = Fraction(0)
            for left, right in enumerate_sub_multiindices(b):
                acc += (Fraction((-1) ** left.size) * alpha_constant(left)
                        / (left.factorial() * right.factorial()
                           * double_factorial(2 * right.weight + 1)))
            assert acc == 0, b
    for w in range(5):
        for L in multiindices_of_weight(w):
            assert gamma_constant(L) == Fraction(
                (-1) ** L.size,
                L.factorial() * double_factorial(2 * L.weight + 1))
    _report(5, "alpha values, orthogonality to |b| = 8, gamma closed form",
            t0, 5)


def test_criterion_06_kappa_cross_validation():
    t0 = time.time()
    eng = RecursionEngine()
    assert eng.value(1, (0,), MultiIndex({1: 1})) == Fraction(1, 24)
    assert eng.reduction_oracle(1, (0,), MultiIndex({1: 1})) == Fraction(1, 24)
    assert eng.value(2, (), MultiIndex({1: 3})) == Fraction(43, 2880)
    assert eng.reduction_oracle(2, (), MultiIndex({1: 3})) == Fraction(43, 2880)
    checked = 0
    for g in range(4):
        for bw in range(5):
            for b in multiindices_of_weight(bw):
                for n in range(1, 4):
                    budget = 3 * g - 3 + n - bw
                    if budget < 0 or 2 * g - 2 + n <= 0:
                        continue
                    for d in _partitions(budget, n):
                        assert eng.value(g, d, b) == \
                            eng.reduction_oracle(g, d, b), (g, d, b)
                        checked += 1
    assert checked > 100
    _report(6, f"recursion = reduction oracle on {checked} keys, "
               "g <= 3, |b| <= 4, n <= 3", t0, 180)


def test_criterion_07_virasoro_constraints():
    t0 = time.time()
    Z = build_partition_function(3, 4, 2, RecursionEngine())
    for k in (-1, 0, 1, 2, 3):
        nonzero, checked = virasoro_residual_report(k, Z)
        assert nonzero == [], (k, nonzero[:3])
        assert checked > 50, k      # higher k consumes more of the t budget
    rng = random.Random(31415)
    for n in range(-1, 4):
        for m in range(-1, n):
            terms = {}
            for _ in range(6):
                tpart = tuple(sorted(
                    {i: rng.randint(1, 2)
                     for i in rng.sample(range(6), rng.randint(0, 2))}.items()))
                spart = tuple(sorted(
                    {j: rng.randint(1, 2)
                     for j in rng.sample([1, 2, 3], rng.randint(0, 1))}.items()))
                terms[(tpart, spart)] = Fraction(rng.randint(-6, 6),
                                                 rng.randint(1, 6))
            res = commutator_check(n, m, TruncatedSeries(terms))
            assert not res.terms, (n, m)
    _report(7, "V_k exp(G) = 0 for k = -1..3 at (3,4,2); commutators hold",
            t0, 300)


def test_criterion_08_substitution():
    t0 = time.time()
    assert p_polynomial(2) == {MultiIndex({1: 1}): Fraction(1)}
    assert p_polynomial(3) == {MultiIndex({2: 1}): Fraction(1),
                               MultiIndex({1: 2}): Fraction(-1, 2)}
    res = substitution_check(3, 3, 3, RecursionEngine())
    nonzero = res.nonzero_admitted()
    assert nonzero == [], nonzero[:3]
    assert len(res.admitted) > 1000
    _report(8, f"substitution residual 0 on {len(res.admitted)} admitted "
               "coefficients at (3,3,3)", t0, 300)


def test_criterion_09_denominators():
    t0 = time.time()
    eng = RecursionEngine()
    assert compute_D(1, 1, eng).value == 24
    rep2 = compute_script_D(2, eng)     # recomputes and compares both paths
    assert rep2.value == compute_D(2, 3, eng).value
    for g in (0, 1, 2):
        for desc, ok in check_proposition17(g, 4, eng):
            assert ok, desc
    for g in range(2, 6):
        for p, order, ok in check_lemma20(g, eng):
            assert ok, (g, p, order)
    rep3 = compute_script_D(3, eng)
    assert check_iz_fixture([48], rep2.value) == [(48, True)]
    assert check_iz_fixture([168], rep3.value) == [(168, True)]
    _report(9, "denominator ladder, both script-D paths, orders of p in "
               "D(g,3), fixture divisibility", t0, 600)


def test_criterion_10_conjecture_reported_never_gates():
    t0 = time.time()
    eng = RecursionEngine()
    reports = []
    for g in (2, 3):
        for params in identity_grid("conj13", g, 4):
            if params["g"] != g:
                continue
            reports.append(run_identity("conj13", params, eng))
    assert reports
    holding = sum(r.status == "holds" for r in reports)
    # reported, not asserted: a failure would print loudly but never gate
    for r in reports:
        if r.status != "holds":
            print(f"  CONJECTURE RESIDUAL NONZERO: {r.params} -> {r.residual}")
    print(f"  conjectural closed form: {holding}/{len(reports)} instances "
          f"hold at g = 2, 3")
    _report(10, "conjectural identity reported (expected zero residuals), "
                "exit status unaffected", t0, 300)
