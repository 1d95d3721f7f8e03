from math import lcm, prod

import pytest

from taukappa.core import partitions
from taukappa.denominators import (_core_shapes, check_iz_fixture,
                                   check_lemma20, check_proposition17,
                                   compute_D, compute_script_D, factorize,
                                   load_fixture_orders)
from taukappa.recursion import RecursionEngine


def test_factorize():
    assert factorize(1) == {}
    assert factorize(5760) == {2: 7, 3: 2, 5: 1}
    assert factorize(97) == {97: 1}
    with pytest.raises(ValueError):
        factorize(0)


def test_compute_D_known_values():
    eng = RecursionEngine()
    assert compute_D(1, 1, eng).value == 24
    assert compute_D(0, 3, eng).value == 1
    assert compute_D(2, 1, eng).value == 1152
    with pytest.raises(ValueError):
        compute_D(0, 2, eng)


def test_report_factorization_multiplies_back():
    rep = compute_D(2, 3, RecursionEngine())
    assert prod(p ** e for p, e in rep.factorization.items()) == rep.value
    assert rep.payload() == {"genus": 2, "n": 3, "value": "5760",
                             "correlators": 7,
                             "factorization": {"2": 7, "3": 2, "5": 1}}


def test_script_D_two_paths_agree():
    eng = RecursionEngine()
    rep = compute_script_D(2, eng)
    assert rep.value == compute_D(2, 3, eng).value
    assert rep.point_count is None
    assert rep.correlator_count == 3 + 3      # volumes, then core shapes
    with pytest.raises(ValueError):
        compute_script_D(1, eng)


def test_script_D_five():
    """script-D(5) = D(5, 12): compute_script_D raises unless the kappa
    volumes and the psi correlators give the same lcm."""
    rep = compute_script_D(5, RecursionEngine())
    assert rep.value == 367873228800
    assert rep.factorization == {2: 18, 3: 6, 5: 2, 7: 1, 11: 1}


def test_core_lcm_is_the_full_psi_side():
    """The lcm over the core correlators, script-D's psi side, equals
    D(g, 3g-3) over every partition for g = 2..6."""
    eng = RecursionEngine()
    for g in range(2, 7):
        core = lcm(*(eng.value(g, d).denominator for d in _core_shapes(g)))
        assert core == compute_D(g, 3 * g - 3, eng).value, g


def test_core_shapes_are_every_core_correlator():
    """The core shapes are, once each, every d in partitions(3g-3+n, n)
    with all d_j >= 2, over every n (none past n = 3g-3), for g <= 6: a
    check the lcm alone cannot make, since dropping whole point counts
    often leaves it unchanged."""
    for g in range(2, 7):
        shapes = _core_shapes(g)
        assert len(set(shapes)) == len(shapes)
        assert set(shapes) == {d for n in range(1, 3 * g - 1)
                               for d in partitions(3 * g - 3 + n, n)
                               if min(d) >= 2}, g
    assert [len(_core_shapes(g)) for g in (4, 7)] == [30, 385]


def test_script_D_volumes_never_run_the_three_sums_with_kappa():
    """The kappa side of script-D goes through the reduction: no record
    on a fresh engine is tagged "mixed", the tag of a correlator that
    the three sums (or the string/dilaton step) computed with kappa
    classes."""
    eng = RecursionEngine()
    compute_script_D(3, eng)
    tags = eng.table.provenance
    assert "oracle" in tags.values()
    assert "mixed" not in tags.values()


def test_proposition17_ladders():
    eng = RecursionEngine()
    assert all(v for _, v in check_proposition17(1, 3, eng))
    assert all(v for _, v in check_proposition17(0, 5, eng))
    assert all(v for _, v in check_proposition17(2, 4, eng))


def test_lemma20_small_genus():
    eng = RecursionEngine()
    for g in (2, 3):
        rows = check_lemma20(g, eng)
        assert [p for p, _, _ in rows] == [2, 3]
        assert all(v for _, _, v in rows)
    rows = check_lemma20(4, eng)
    assert [p for p, _, _ in rows] == [2, 3, 5]
    assert all(v for _, _, v in rows)


def test_iz_fixture_divisibility():
    value = compute_script_D(2, RecursionEngine()).value
    assert check_iz_fixture([48], value) == [(48, True)]
    assert check_iz_fixture([1], value) == [(1, True)]
    # 7 does not divide script-D(2) = 5760: the check reports rather than hides
    assert check_iz_fixture([7], value) == [(7, False)]


def test_fixture_file(tmp_path):
    p = tmp_path / "orders.txt"
    p.write_text("# comment\n48 2 Bolza\n168 3 Klein quartic\n")
    rows = load_fixture_orders(str(p))
    assert rows == [(48, 2, "Bolza"), (168, 3, "Klein quartic")]


def test_packaged_fixture_has_acceptance_orders():
    import importlib.resources as resources
    path = resources.files("taukappa").joinpath("data/aut_orders.txt")
    rows = load_fixture_orders(str(path))
    pairs = {(o, g) for o, g, _ in rows}
    assert (48, 2) in pairs and (168, 3) in pairs
