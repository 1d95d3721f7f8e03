import json
from collections import Counter
from fractions import Fraction

import pytest

from taukappa import identities
from taukappa.core import (EMPTY, MultiIndex, multiindices_up_to_weight,
                           multiset_splits)
from taukappa.identities import (check_conjecture13, check_proposition9,
                                 check_proposition11, check_theorem7,
                                 check_theorem8, check_theorem10,
                                 check_theorem12, identity_grid, run_identity)
from taukappa.recursion import RecursionEngine

K1 = MultiIndex({1: 1})


def test_thm7_examples():
    eng = RecursionEngine()
    assert check_theorem7(1, [2], 3, eng).residual == 0
    rep = check_theorem7(1, [2], 2, eng)
    assert rep.rhs == Fraction(1, 3)
    assert rep.status == "holds"
    rep = check_theorem7(0, [1, 1, 1], 0, eng)
    assert rep.status == "holds"


def test_thm7_rejects_structural_violations():
    eng = RecursionEngine()
    with pytest.raises(ValueError):
        check_theorem7(1, [2], 1, eng)      # k < 2g
    with pytest.raises(ValueError):
        check_theorem7(1, [0], 2, eng)      # part 2 needs d_j >= 1
    with pytest.raises(ValueError):
        check_theorem7(0, [-1], 1, eng)


def test_thm8_examples():
    eng = RecursionEngine()
    rep = check_theorem8(1, [1], 2, eng)
    assert rep.rhs == Fraction(1, 12) and rep.status == "holds"
    assert check_theorem8(1, [0, 1], 3, eng).residual == 0
    rep = check_theorem8(2, [2], 4, eng)
    assert rep.rhs == Fraction(1, 240) and rep.status == "holds"


@pytest.mark.parametrize("args", [
    (1, [2], 1),        # k < 2g
    (0, [0], 1),        # part 1 needs sum d = 3g+n-k-1 >= 0
    (1, [0], 2),        # part 2 needs d_j >= 1
    (1, [2], 2),        # part 2 needs sum(d_j - 1) = g-1
])
def test_thm8_rejects_structural_violations(args):
    with pytest.raises(ValueError):
        check_theorem8(*args, RecursionEngine())


def test_prop9_examples():
    eng = RecursionEngine()
    for args in ((1, [2]), (1, [1, 1]), (2, [1, 1, 2])):
        assert check_proposition9(*args, eng).residual == 0


def test_thm10_examples():
    eng = RecursionEngine()
    assert check_theorem10(1, [1], 2, eng).residual == 0
    assert check_theorem10(2, [1, 1], 4, eng).residual == 0
    with pytest.raises(ValueError):
        check_theorem10(1, [], 4, eng)
    with pytest.raises(ValueError):
        check_theorem10(1, [1], 3, eng)     # odd k


def test_thm10_recovers_one_point_value():
    eng = RecursionEngine()
    # with no insertions at genus 2, the identity pins <tau_4>_2 = 1/1152
    assert check_theorem10(2, [], 4, eng).residual == 0


def test_prop11_examples():
    eng = RecursionEngine()
    assert check_proposition11(1, [2], EMPTY, eng).residual == 0
    assert check_proposition11(1, [1], K1, eng).residual == 0
    assert check_proposition11(2, [1], K1, eng).residual == 0


def test_thm12_examples():
    eng = RecursionEngine()
    assert check_theorem12(1, [1], EMPTY, 2, eng).residual == 0
    assert check_theorem12(1, [0], K1, 2, eng).residual == 0
    assert check_theorem12(2, [1, 1], EMPTY, 4, eng).residual == 0
    with pytest.raises(ValueError):
        check_theorem12(2, [1], K1, 3, eng)


def test_conj13_examples():
    eng = RecursionEngine()
    rep = check_conjecture13(2, [2, 2], eng)
    assert rep.conjectural and rep.rhs == Fraction(1, 48)
    assert rep.residual == 0
    assert check_conjecture13(2, [3, 1], eng).residual == 0
    with pytest.raises(ValueError):
        check_conjecture13(1, [2], eng)


def test_report_json_serialization():
    eng = RecursionEngine()
    rep = check_theorem8(1, [1], 2, eng)
    payload = json.loads(json.dumps(rep.payload()))
    assert payload["identity"] == "thm8"
    assert payload["lhs"] == "1/12" and payload["residual"] == "0/1"
    assert payload["status"] == "holds"


def test_grids_yield_admissible_and_hold():
    eng = RecursionEngine()
    for name in ("thm7", "thm8", "prop9", "thm10", "prop11", "thm12"):
        seen = 0
        for params in identity_grid(name, 2, 2, bmax=1):
            rep = run_identity(name, params, eng)
            assert rep.status == "holds", (name, params)
            seen += 1
        assert seen > 0, name


def test_part2_pass_sets_match():
    """Both closed-form families hold on their full part-2 grids; the
    split identity mediates between them, so the pass sets must agree
    (here: both are everything)."""
    eng = RecursionEngine()
    results = {}
    for name in ("thm7", "thm8"):
        passed, total = set(), 0
        for params in identity_grid(name, 2, 3):
            if params["k"] != 2 * params["g"]:
                continue
            total += 1
            if run_identity(name, params, eng).status == "holds":
                passed.add((params["g"], params["d"]))
        assert total > 0 and len(passed) == total, name
        results[name] = passed
    assert results["thm7"] and results["thm8"]


@pytest.mark.parametrize("check, args", [
    (check_proposition11, (3, [2, 1], K1)),
    (check_proposition9, (2, [2, 1, 1])),
    (check_theorem7, (2, [1, 1], 5)),
    (check_theorem12, (2, [1, 1], EMPTY, 4)),
])
def test_each_check_enumerates_splits_once(monkeypatch, check, args):
    """A check lists the multiset splits of d once and reads all of its
    split sums, over every j and every kappa part, off that list."""
    calls = []

    def counted(values):
        calls.append(values)
        return multiset_splits(values)

    monkeypatch.setattr(identities, "multiset_splits", counted)
    assert check(*args, RecursionEngine()).status == "holds"
    assert len(calls) == 1, check.__name__


def test_grids_enumerate_no_kappa_weight_past_the_cap(monkeypatch):
    """No admissible kappa(b) weighs more than 3 gmax + nmax, so no grid
    at (gmax, nmax, bmax) = (1, 2, 40) asks for a multi-index above 5."""
    asked = []

    def spy(bmax):
        asked.append(bmax)
        return multiindices_up_to_weight(min(bmax, 5))

    monkeypatch.setattr(identities, "multiindices_up_to_weight", spy)
    for name in identities.IDENTITY_NAMES:
        list(identity_grid(name, 1, 2, 40))
    assert asked and max(asked) <= 5


def _labeled_split_sum(eng, g, d, b, heads):
    """`_split_sum` by brute force: d's insertions and b's kappa factors
    each carry a label, and the sum runs over every subset of each and
    every genus g' <= g that meets both factors' dimension constraints."""
    kappas = [i for i, m in b.entries for _ in range(m)]
    total = Fraction(0)
    for sign, head1, head2 in heads:
        for mask in range(2 ** len(d)):
            d1 = head1 + tuple(x for i, x in enumerate(d) if mask >> i & 1)
            d2 = head2 + tuple(x for i, x in enumerate(d)
                               if not mask >> i & 1)
            for kmask in range(2 ** len(kappas)):
                b1 = MultiIndex(dict(Counter(
                    x for i, x in enumerate(kappas) if kmask >> i & 1)))
                b2 = MultiIndex(dict(Counter(
                    x for i, x in enumerate(kappas) if not kmask >> i & 1)))
                for gp in range(g + 1):
                    if (sum(d1) + b1.weight == 3 * gp - 3 + len(d1)
                            and sum(d2) + b2.weight
                            == 3 * (g - gp) - 3 + len(d2)):
                        total += (sign * eng.value(gp, d1, b1)
                                  * eng.value(g - gp, d2, b2))
    return total


B3 = MultiIndex({1: 2, 2: 1})


@pytest.mark.parametrize("g, d, b, heads", [
    # thm7's heads at k = 2 and k = 4
    (2, (2, 2, 1, 1), MultiIndex({1: 2}),
     [((-1) ** j, (j, 0, 0), (2 - j, 0, 0)) for j in range(3)]),
    (3, (2, 1, 1), B3,
     [((-1) ** j, (j, 0, 0), (4 - j, 0, 0)) for j in range(5)]),
    # the tau_M heads at M = 4
    (4, (2, 2, 1, 1), B3, [((-1) ** j, (j,), (2 - j,)) for j in range(3)]),
    # the ladder of prop9 and prop11 at 2g = 4
    (3, (2, 1, 1), B3, identities._ladder_heads(2)),
])
def test_split_sum_matches_labeled_subsets(g, d, b, heads):
    """The split kernel's multiset splits, `ways` and binom(b, L) count
    what a sum over labeled subsets of d and of the kappa factors counts,
    with each head pair's sign, on shapes with repeated entries."""
    eng = RecursionEngine()
    expected = _labeled_split_sum(eng, g, d, b, heads)
    assert expected != 0
    assert identities._split_sum(eng, g, d, b, heads) == expected
