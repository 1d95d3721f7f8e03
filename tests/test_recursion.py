import os
import random
import re
import tempfile
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taukappa.core import (EMPTY, Memo, MultiIndex, double_factorial,
                           enumerate_sub_multiindices, genus_for_dimension,
                           multiindex_binomial, multiindices_of_weight,
                           multiindices_up_to_weight)
from taukappa.identities import check_dilaton, check_string
from taukappa.npoint import NPointEngine
from taukappa.recursion import (CorrelatorTable, EngineDisagreement,
                                RecursionEngine, _has_line_over,
                                alpha_constant, corr_key)

K1 = MultiIndex({1: 1})


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


# -- alpha constants -----------------------------------------------------


def test_alpha_base_values():
    assert alpha_constant(EMPTY) == 1
    assert alpha_constant(K1) == Fraction(1, 3)
    assert alpha_constant(MultiIndex({2: 1})) == Fraction(1, 15)
    assert alpha_constant(MultiIndex({1: 2})) == Fraction(7, 45)


def test_alpha_orthogonality_up_to_weight_8():
    """sum over L+L'=b of (-1)^||L|| alpha_L / (L! L'! (2|L'|+1)!!) = 0."""
    for w in range(1, 9):
        for b in multiindices_of_weight(w):
            acc = Fraction(0)
            for left, right in enumerate_sub_multiindices(b):
                acc += (Fraction((-1) ** left.size) * alpha_constant(left)
                        / (left.factorial() * right.factorial()
                           * double_factorial(2 * right.weight + 1)))
            assert acc == 0, b


def test_alpha_matches_generic_inversion():
    from test_core import invert_coefficient_family

    def beta(L):
        return Fraction((-1) ** L.size,
                        L.factorial() * double_factorial(2 * L.weight + 1))

    inv = invert_coefficient_family(beta)
    for b in multiindices_up_to_weight(6):
        assert alpha_constant(b) == b.factorial() * inv(b)


# -- pure psi engine -----------------------------------------------------


def test_base_cases():
    eng = RecursionEngine()
    assert eng.value(0, [0, 0, 0]) == 1
    assert eng.value(1, [1]) == Fraction(1, 24)


def test_known_genus2_values():
    eng = RecursionEngine()
    assert eng.value(2, [2, 2, 2]) == Fraction(7, 240)
    assert eng.value(2, [2, 3]) == Fraction(29, 5760)
    assert eng.value(2, [4]) == Fraction(1, 1152)
    assert eng.value(2, [4, 1]) == Fraction(1, 384)


LITERATURE_VALUES = {
    # frozen from an independent published implementation
    (0, (1, 1, 0, 0, 0)): Fraction(2),
    (1, (2, 1, 0)): Fraction(1, 12),
    (1, (1, 1, 1)): Fraction(1, 12),
    (2, (5, 0)): Fraction(1, 1152),
    (3, (7,)): Fraction(1, 82944),
    (3, (7, 1)): Fraction(5, 82944),
    (3, (6, 2)): Fraction(77, 414720),
    (3, (5, 3)): Fraction(503, 1451520),
    (3, (4, 4)): Fraction(607, 1451520),
}


def test_literature_values_both_routes():
    eng, npe = RecursionEngine(), NPointEngine()
    for (g, d), expected in LITERATURE_VALUES.items():
        assert eng.value(g, d) == expected, (g, d)
        assert npe.correlator(g, d, "normalized") == expected, (g, d)


def genus0_psi_oracle(d) -> Fraction:
    """(n-3)!/prod d_j! for sum d = n - 3; follows from the string equation
    alone, admitted as an independent genus-0 oracle."""
    d = tuple(d)
    n = len(d)
    if n < 3 or sum(d) != n - 3 or any(x < 0 for x in d):
        return Fraction(0)
    denom = 1
    for x in d:
        denom *= factorial(x)
    return Fraction(factorial(n - 3), denom)


def test_genus0_closed_form_oracle():
    eng = RecursionEngine()
    for n in range(3, 8):
        for d in _partitions(n - 3, n):
            assert eng.value(0, d) == genus0_psi_oracle(d), d


def test_one_point_closed_form():
    eng = RecursionEngine()
    for g in range(1, 13):
        assert eng.value(g, [3 * g - 2]) == \
            Fraction(1, 24 ** g * factorial(g))


def test_zero_conventions():
    eng = RecursionEngine()
    assert eng.value(0, [0, 0]) == 0      # unstable
    assert eng.value(1, [2]) == 0         # dimension violation
    assert eng.value(0, [5, 0, 0]) == 0
    assert eng.value(2, [-1, 7]) == 0


def test_symmetry_under_permutation():
    rng = random.Random(5)
    eng = RecursionEngine()
    for g in range(4):
        for _ in range(5):
            n = rng.randint(1, 6)
            dim = 3 * g - 3 + n
            if dim < 0 or 2 * g - 2 + n <= 0:
                continue
            cuts = sorted(rng.randint(0, dim) for _ in range(n - 1))
            d = [b - a for a, b in zip([0] + cuts, cuts + [dim])]
            ref = eng.value(g, d)
            for _ in range(3):
                rng.shuffle(d)
                assert eng.value(g, d) == ref


# -- mixed correlators and the reduction oracle --------------------------


def test_mixed_known_values():
    eng = RecursionEngine()
    assert eng.value(1, [0], K1) == Fraction(1, 24)
    assert eng.value(0, [0, 0, 0, 0], K1) == 1
    assert eng.value(1, [1], EMPTY) == Fraction(1, 24)


def test_value_serves_volumes_with_no_insertion():
    """value() with no tau insertion is the pure kappa volume: 0 below
    genus 2 and off the dimension |b| = 3g - 3, else the volume, which
    the reduction oracle computes and records as `oracle`."""
    eng = RecursionEngine()
    for g in (0, 1):
        for b in (EMPTY, K1, MultiIndex({1: 3}), MultiIndex({2: 1})):
            assert eng.value(g, (), b) == 0, (g, b)
    for b in (EMPTY, K1, MultiIndex({1: 2}), MultiIndex({1: 4})):
        assert eng.value(2, [], b) == 0, b
    assert eng.value(3, (), MultiIndex({1: 5})) == 0
    assert len(eng.table) == 0
    b = MultiIndex({1: 3})
    assert eng.value(2, [], b) == Fraction(43, 2880)
    assert eng.table.provenance[(2, (), b)] == "oracle"
    assert "mixed" not in eng.table.provenance.values()


def test_oracle_known_values():
    eng = RecursionEngine()
    assert eng.reduction_oracle(1, [0], K1) == Fraction(1, 24)
    assert eng.reduction_oracle(2, [], MultiIndex({1: 3})) == \
        Fraction(43, 2880)
    assert eng.reduction_oracle(0, [0] * 5, MultiIndex({1: 2})) == 5


def test_pure_kappa_volumes():
    eng = RecursionEngine()
    assert eng.value(2, (), MultiIndex({1: 3})) == Fraction(43, 2880)
    assert eng.value(2, (), MultiIndex({3: 1})) == Fraction(1, 1152)
    assert eng.value(2, (), MultiIndex({1: 1, 2: 1})) == \
        Fraction(1, 240)
    assert eng.value(2, (), K1) == 0
    assert eng.value(1, (), K1) == 0


def test_classical_volume_anchors():
    """Pure kappa_1 correlators pinned by the classical volume table:
    V(g,n) at zero boundary equals (2 pi^2)^D <kappa_1^D tau_0^n>/D!."""
    eng = RecursionEngine()
    assert eng.value(0, (0,) * 4, K1) == 1                       # 2 pi^2
    assert eng.value(1, (0,), K1) == Fraction(1, 24)             # pi^2/12
    assert eng.value(1, (0, 0), MultiIndex({1: 2})) == Fraction(1, 8)
    assert eng.value(2, (), MultiIndex({1: 3})) == Fraction(43, 2880)
    assert eng.value(2, (0,), MultiIndex({1: 4})) == Fraction(29, 128)
    assert eng.value(3, (), MultiIndex({1: 6})) == \
        Fraction(176557, 107520)                                 # genus-3 volume


def test_mixed_agrees_with_oracle():
    eng = RecursionEngine()
    for g in range(3):
        for bw in range(4):
            for b in multiindices_of_weight(bw):
                for n in range(1, 4):
                    budget = 3 * g - 3 + n - bw
                    if budget < 0 or 2 * g - 2 + n <= 0:
                        continue
                    for d in _partitions(budget, n):
                        assert eng.value(g, d, b) == \
                            eng.reduction_oracle(g, d, b), (g, d, b)


def test_string_dilaton_known_cases():
    eng = RecursionEngine()
    assert check_string(1, [1], EMPTY, eng).residual == 0
    assert check_string(1, [0], K1, eng).residual == 0
    assert check_string(2, [2], MultiIndex({1: 2}), eng).residual == 0
    assert check_dilaton(1, [1], EMPTY, eng).residual == 0
    assert check_dilaton(2, [4], EMPTY, eng).residual == 0
    assert check_dilaton(2, [1], MultiIndex({1: 2}), eng).residual == 0


def test_string_dilaton_full_grid():
    """Residuals vanish on the whole grid g <= 3, |b| <= 3, stable bases."""
    eng = RecursionEngine()
    checked = 0
    for g in range(4):
        for n in range(4):
            if 2 * g - 2 + n <= 0:
                continue
            for bw in range(4):
                for b in multiindices_of_weight(bw):
                    for shift, fn in ((0, check_string),
                                      (1, check_dilaton)):
                        budget = 3 * g - 3 + n + 1 - bw - shift
                        if budget < 0:
                            continue
                        for d in _partitions(budget, n):
                            assert fn(g, d, b, eng).residual == 0, \
                                (fn.__name__, g, d, b)
                            checked += 1
    assert checked > 100


def test_pure_kappa1_specialization_matches_oracle():
    """b = {1: l} drives the recursion through pure kappa_1 splits only;
    the values are the classical volume shadows, cross-checked here."""
    eng = RecursionEngine()
    for l in range(1, 5):
        b = MultiIndex({1: l})
        for g in range(4):
            for n in (1, 2):
                budget = 3 * g - 3 + n - l
                if budget < 0 or 2 * g - 2 + n <= 0:
                    continue
                for d in _partitions(budget, n):
                    assert eng.value(g, d, b) == \
                        eng.reduction_oracle(g, d, b), (g, d, l)


def test_wk_equals_npoint_engines_small():
    eng, npe = RecursionEngine(), NPointEngine()
    for g in range(3):
        for n in range(1, 7):
            dim = 3 * g - 3 + n
            if dim < 0 or dim > 6 or 2 * g - 2 + n <= 0:
                continue
            for d in _partitions(dim, n):
                assert eng.value(g, d) == \
                    npe.correlator(g, d, "normalized")


# -- the integer kernel against a term-by-term Fraction reference ----------


def _reference_multiset_splits(values):
    distinct = sorted(set(values), reverse=True)
    counts = [values.count(v) for v in distinct]

    def rec(i, part, ways):
        if i == len(distinct):
            chosen = tuple(part)
            rest = list(values)
            for x in chosen:
                rest.remove(x)
            yield chosen, tuple(rest), ways
            return
        v, c = distinct[i], counts[i]
        for k in range(c + 1):
            yield from rec(i + 1, part + [v] * k, ways * comb(c, k))

    yield from rec(0, [], 1)


def _reference_multinomial(b, parts):
    """prod_i b_i! / (a_1(i)! ... a_n(i)!) for a split sum(parts) = b."""
    out = 1
    for i, bi in b.entries:
        out *= factorial(bi)
        for p in parts:
            out //= factorial(dict(p.entries).get(i, 0))
    return out


def _reference_three_sums(eng, g, d, b):
    """The three sums with one Fraction product per term."""
    d1 = d[0]
    rest = d[1:]
    total = Fraction(0)
    rest_counts = {}
    for v in rest:
        rest_counts[v] = rest_counts.get(v, 0) + 1
    for left, right in enumerate_sub_multiindices(b):
        a_l = alpha_constant(left)
        bin_l = multiindex_binomial(b, left)
        w = left.weight
        for v, mult in rest_counts.items():
            idx = w + d1 + v - 1
            if idx < 0:
                continue
            coef = Fraction(double_factorial(2 * (w + d1 + v) - 1),
                            double_factorial(2 * v - 1))
            newd = list(rest)
            newd.remove(v)
            newd.append(idx)
            total += mult * a_l * bin_l * coef * eng.value(g, newd, right)
        m = w + d1 - 2
        if m >= 0 and g >= 1:
            for r in range(m + 1):
                s = m - r
                coef = double_factorial(2 * r + 1) * double_factorial(2 * s + 1)
                total += (Fraction(1, 2) * a_l * bin_l * coef
                          * eng.value(g - 1, rest + (r, s), right))
    for left, e, f in ((left, e, f)
                       for left, right in enumerate_sub_multiindices(b)
                       for e, f in enumerate_sub_multiindices(right)):
        m = left.weight + d1 - 2
        if m < 0:
            continue
        a_l = alpha_constant(left)
        tri = _reference_multinomial(b, (left, e, f))
        for part, other, ways in _reference_multiset_splits(rest):
            for r in range(m + 1):
                s = m - r
                num = r + sum(part) + e.weight - len(part) + 2
                gp, remdr = divmod(num, 3)
                if remdr or gp < 0 or gp > g:
                    continue
                v1 = eng.value(gp, part + (r,), e)
                if not v1:
                    continue
                v2 = eng.value(g - gp, other + (s,), f)
                if not v2:
                    continue
                coef = double_factorial(2 * r + 1) * double_factorial(2 * s + 1)
                total += Fraction(1, 2) * a_l * tri * ways * coef * v1 * v2
    return total / double_factorial(2 * d1 + 1)


def _reference_dilaton_sum(eng, g, b):
    """sum over L + L' = b of (-1)^||L|| binom(b, L) <tau_{|L|+1} kappa(L')>_g."""
    acc = Fraction(0)
    for left, right in enumerate_sub_multiindices(b):
        acc += ((-1) ** left.size * multiindex_binomial(b, left)
                * eng.value(g, (left.weight + 1,), right))
    return acc


def test_volumes_agree_with_three_sums():
    """Every pure kappa volume with 2 <= g <= 5 from the reduction equals
    the dilaton-type sum over the three sums, (2g-2) <kappa(b)>_g =
    sum_L (-1)^||L|| binom(b, L) <tau_{|L|+1} kappa(b-L)>_g, run on an
    engine of its own."""
    eng, sums = RecursionEngine(), RecursionEngine()
    checked = 0
    for g in range(2, 6):
        for b in multiindices_of_weight(3 * g - 3):
            assert eng.value(g, (), b) == \
                _reference_dilaton_sum(sums, g, b) / (2 * g - 2), (g, b)
            checked += 1
    assert checked == 3 + 11 + 30 + 77


def _reference_pre_reduce(eng, g, d, b):
    """One string (d_n = 0) or dilaton (d_n = 1) step, one Fraction per
    term, the string sum taken over positions j rather than values."""
    s, rest = d[-1], d[:-1]
    if s:
        total = (2 * g - 2 + len(rest)) * eng.value(g, rest, b)
    else:
        total = Fraction(0)
        for j, v in enumerate(rest):
            if v:
                total += eng.value(g, rest[:j] + (v - 1,) + rest[j + 1:], b)
    for left, right in enumerate_sub_multiindices(b):
        if left:
            total -= ((-1) ** left.size * multiindex_binomial(b, left)
                      * eng.value(g, rest + (left.weight + s,), right))
    return total


def test_integer_kernel_matches_fraction_reference():
    """Every shape with g <= 3, n <= 4, |b| <= 3, mixed b included, where
    the exact-integer sums must equal the term-by-term Fraction sums.  A
    shape with a tau_0, or a tau_1 and another insertion, takes one
    string/dilaton step; there the three sums must give the same value."""
    eng = RecursionEngine()
    checked = reduced = 0
    for g in range(4):
        for bw in range(4):
            for b in multiindices_of_weight(bw):
                if g >= 2 and bw == 3 * g - 3:
                    assert eng.value(g, (), b) == \
                        _reference_dilaton_sum(eng, g, b) / (2 * g - 2), (g, b)
                for n in range(1, 5):
                    budget = 3 * g - 3 + n - bw
                    if budget < 0 or 2 * g - 2 + n <= 0:
                        continue
                    for d in _partitions(budget, n):
                        if d in ((0, 0, 0), (1,)):
                            continue
                        if d[-1] == 0 or (d[-1] == 1 and n >= 2):
                            assert eng._pre_reduce(g, d, b) == \
                                _reference_pre_reduce(eng, g, d, b), (g, d, b)
                            reduced += 1
                        if d != (0,):
                            assert eng._three_sums(g, d, b) == \
                                _reference_three_sums(eng, g, d, b) == \
                                eng.value(g, d, b), (g, d, b)
                        checked += 1
    assert checked > 300 and reduced > 200


def test_pre_reduced_mixed_values_match_oracle():
    """Every <kappa(b) prod tau_d>_g with g <= 3, n <= 3, 0 < |b| <= 3 and
    a tau_0 or tau_1 insertion (all but <tau_1 kappa(b)>_g start with a
    string/dilaton step) equals the kappa reduction oracle run on an
    engine of its own."""
    eng, oracle = RecursionEngine(), RecursionEngine()
    checked = 0
    for g in range(4):
        for bw in range(1, 4):
            for b in multiindices_of_weight(bw):
                for n in range(1, 4):
                    budget = 3 * g - 3 + n - bw
                    if budget < 0 or 2 * g - 2 + n <= 0:
                        continue
                    for d in _partitions(budget, n):
                        if d[-1] <= 1:
                            assert eng.value(g, d, b) == \
                                oracle.reduction_oracle(g, d, b), (g, d, b)
                            checked += 1
    assert checked == 100


# -- the correlator table -------------------------------------------------


def test_correlator_key_canonicalization():
    k1 = corr_key(2, [1, 3, 2], K1)
    k2 = corr_key(2, (3, 2, 1), K1)
    assert k1 == k2 and hash(k1) == hash(k2)
    # the dimension constraint sum(d) + |b| = 3g - 3 + n picks the genus
    assert genus_for_dimension(sum(k1[1]) + k1[2].weight, len(k1[1])) != 2
    assert genus_for_dimension(2 + 2, 2) != 2
    assert genus_for_dimension(3 + 2, 2) == 2


def test_table_write_once_discipline():
    t = CorrelatorTable()
    t.record(1, (1,), EMPTY, Fraction(1, 24), "wk")
    t.record(1, (1,), EMPTY, Fraction(1, 24), "other")   # same value: fine
    assert t.provenance[(1, (1,), EMPTY)] == "wk"
    with pytest.raises(EngineDisagreement):
        t.record(1, (1,), EMPTY, Fraction(1, 25), "bad-engine")


def test_table_file_round_trip(tmp_path):
    eng = RecursionEngine()
    eng.value(2, (2, 3))
    eng.value(2, (), MultiIndex({1: 3}))
    path = tmp_path / "cache.txt"
    wrote = eng.table.append_new(str(path))
    assert wrote == len(eng.table)

    fresh = CorrelatorTable()
    loaded = fresh.load(str(path))
    assert loaded == wrote
    assert fresh.values == eng.table.values
    # append is incremental: nothing new to write
    assert fresh.append_new(str(path)) == 0
    text = path.read_text()
    assert CorrelatorTable()._format_line(
        (2, (3, 2), EMPTY), Fraction(29, 5760)) == "2|3,2||29/5760"
    assert "2|3,2||29/5760" in text


def test_table_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a record\n")
    with pytest.raises(ValueError):
        CorrelatorTable().load(str(path))


def test_table_load_canonicalizes_and_skips(tmp_path):
    """Comment and blank lines are skipped, records in any order are filed
    under the canonical key, and a repeated record counts once per line."""
    path = tmp_path / "cache.txt"
    path.write_text("# header\n\n   \n0|0,1,0,0||1/1\n"
                    "2|1|2:1,1:1|101/5760\n0|0,1,0,0||1/1\n")
    table = CorrelatorTable()
    assert table.load(str(path)) == 3
    assert len(table) == 2
    assert table.get(0, (1, 0, 0, 0)) == 1
    assert table.get(2, (1,), MultiIndex({1: 1, 2: 1})) == Fraction(101, 5760)
    assert set(table.provenance.values()) == {"cache"}
    assert table.append_new(str(tmp_path / "out.txt")) == 0


def test_table_lines_end_at_newline_only(tmp_path):
    """A form feed inside a line does not split it into two records."""
    path = tmp_path / "cache.txt"
    path.write_text("1|1||1/24\x0c2|4||1/1152\n")
    with pytest.raises(ValueError):
        CorrelatorTable().load(str(path))


def test_table_load_is_linear_in_a_long_blank_run(tmp_path):
    """A bad character after a long run of blanks fails the load at once;
    a line pattern whose blank runs could trade characters would take
    minutes on this line."""
    path = tmp_path / "cache.txt"
    path.write_text("1|1||1/24\n" + " " * 200_000 + "x\n")
    with pytest.raises(ValueError, match="malformed cache line: 'x'"):
        CorrelatorTable().load(str(path))


_KEYS = st.tuples(
    st.integers(0, 30),
    st.lists(st.integers(0, 90), max_size=6).map(
        lambda v: tuple(sorted(v, reverse=True))),
    st.dictionaries(st.integers(1, 6), st.integers(1, 3),
                    max_size=3).map(MultiIndex))
_VALUES = st.one_of(
    st.fractions(),
    st.integers(-10 ** 40, 10 ** 40).map(Fraction),
    st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40),
              st.integers(1, 10 ** 40)))


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(_KEYS, _VALUES, max_size=12))
def test_table_file_round_trip_property(records):
    """append_new then load gives back the same values, and nothing is left
    to append on either table."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cache.txt")
        table = CorrelatorTable()
        for (g, d, b), value in records.items():
            table.record(g, d[::-1], b, value, "wk")
        assert table.append_new(path) == len(records)
        fresh = CorrelatorTable()
        assert fresh.load(path) == len(records)
        assert fresh.values == table.values
        assert fresh.append_new(path) == 0
        assert table.append_new(path) == 0


# -- the cache index against the eager loader --------------------------------

_REFERENCE_LINE = re.compile(r"^(\d+)\|([0-9,]*)\|([0-9:,]*)\|(-?\d+)/(\d+)$")


def reference_load(table, path):
    """The eager loader that the index replaced: every record line becomes
    a key and a Fraction and goes through record(), in file order."""
    if not os.path.exists(path):
        return 0
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().split("\n")
    kappa, ints = Memo(MultiIndex.parse), Memo(int)
    count = 0
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _REFERENCE_LINE.match(line)
        if not m:
            raise ValueError(f"malformed cache line: {line!r}")
        g, d, b, num, den = m.groups()
        if int(den) == 0:
            raise ValueError(f"zero denominator in cache line: {line!r}")
        d = map(ints.__getitem__, filter(None, d.split(",")))
        table.record(int(g), d, kappa[b], Fraction(int(num), int(den)),
                     "cache")
        count += 1
    return count


_SPACE = st.sampled_from(["", "", " ", "\t", "  \t", "\r", " \r"])


@st.composite
def _spelled_record(draw, key, value):
    """One line for (key, value), spelled as a hand-edited file might:
    d in any order, b out of order, split, with a zero entry or without
    its multiplicities, the value unreduced, leading zeros, whitespace
    around it."""
    g, d, b = key
    d = draw(st.permutations(d))
    dtext = ",".join(draw(st.sampled_from(["{}", "{}", "0{}"])).format(v)
                     for v in d)
    chunks = []
    for i, m in draw(st.permutations(b.entries)):
        if m == 1 and draw(st.booleans()):
            chunks.append(str(i))
        elif m > 1 and draw(st.booleans()):
            chunks += [f"{i}:{m - 1}", str(i)]
        else:
            chunks.append(f"{i}:{m}")
    if draw(st.booleans()):
        chunks.append(f"{draw(st.integers(1, 4))}:0")
    scale = draw(st.integers(1, 3))
    text = (f"{draw(st.sampled_from(['{}', '0{}'])).format(g)}|{dtext}|"
            f"{','.join(chunks)}|{value.numerator * scale}/"
            f"{value.denominator * scale}")
    return draw(_SPACE) + text + draw(_SPACE)


_LOAD_KEYS = st.tuples(
    st.integers(0, 12),
    st.lists(st.integers(0, 14), max_size=5).map(
        lambda v: tuple(sorted(v, reverse=True))),
    st.dictionaries(st.integers(1, 4), st.integers(1, 3),
                    max_size=3).map(MultiIndex))
_FAULTS = ("malformed", "zero", "position", "disagree")


@st.composite
def cache_files(draw):
    """(lines of a cache file, records recorded before the load, faults
    put in the file)."""
    records = draw(st.dictionaries(
        _LOAD_KEYS, st.fractions(max_denominator=10 ** 6), max_size=8))
    lines = []
    for key, value in records.items():
        for _ in range(draw(st.integers(1, 3))):     # repeated records
            lines.append(draw(_spelled_record(key, value)))
    lines += draw(st.lists(st.sampled_from(
        ["", "   ", "# comment", "  # g|d|b|1/0", "\r"]), max_size=4))
    faults = draw(st.lists(st.sampled_from(_FAULTS), max_size=2))
    for fault in faults:
        if fault == "malformed":
            line = draw(st.sampled_from(
                ["1|1|1/24", "1|1||1/24|", "1| 1||1/24", "1|1||1/-24",
                 "x", "1|1||1/24\x0c2|4||1/1152"]))
        elif fault == "zero":
            line = draw(st.sampled_from(["1|1||1/0", "3|2,0|1:1|-5/00"]))
        elif fault == "position":
            line = draw(st.sampled_from(["1|1|0:1|1/24", "2|3|1:1,0:2|1/2"]))
        elif records:
            key = draw(st.sampled_from(sorted(records, key=repr)))
            line = draw(_spelled_record(key, records[key] + 1))
        else:
            line = "1|1||1/24\n1|1||1/25"
        lines.insert(draw(st.integers(0, len(lines))), line)
    # keys recorded by an engine before the load, some with another value
    earlier = {}
    for key in draw(st.lists(st.sampled_from(sorted(records, key=repr)),
                             max_size=2, unique=True)) if records else []:
        earlier[key] = records[key] + draw(st.sampled_from([0, 0, 1]))
    return lines, earlier, faults


def _outcome(load, table, path):
    try:
        return "loaded", load(table, path)
    except (ValueError, EngineDisagreement) as exc:
        return "raised", type(exc)


@settings(max_examples=150, deadline=None)
@given(cache_files())
def test_index_load_matches_eager_reference(case):
    """Loading into the index gives the table the eager loader gives: the
    same values, provenance, length and count, or the same exception
    class on a malformed, zero-denominator, position-0 or disagreeing
    line."""
    lines, earlier, faults = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cache.txt")
        with open(path, "wb") as fh:
            fh.write("\n".join(lines).encode("ascii"))
        indexed, eager = CorrelatorTable(), CorrelatorTable()
        for table in (indexed, eager):
            for (g, d, b), value in earlier.items():
                table.record(g, d, b, value, "wk")
        got = _outcome(CorrelatorTable.load, indexed, path)
        want = _outcome(reference_load, eager, path)
    assert got == want, (lines, earlier)
    if got[0] == "raised":
        return
    assert not faults
    assert indexed.parsed.keys() == earlier.keys()    # nothing parsed yet
    assert len(indexed) == len(eager)
    # a record read by key is parsed on first use, through `get` or by
    # its canonical key through `lookup`
    records = list(eager.values.items())
    for (g, d, b), value in records[::2]:
        assert indexed.get(g, d[::-1], b) == value
    for key, value in records[1::2]:
        assert indexed.lookup(key) == value
    assert len(indexed) == len(eager)
    absent = (13, (1,), EMPTY)      # _LOAD_KEYS draw no genus above 12
    assert indexed.lookup(absent) is None and indexed.get(*absent) is None
    assert len(indexed) == len(eager)
    assert indexed.values == eager.values
    assert indexed.provenance == eager.provenance
    assert len(indexed) == len(eager)


# -- segments written by append_new -------------------------------------------


def _segment(records: dict) -> bytes:
    """The segment that `append_new` writes for `records` into an empty
    file."""
    table = CorrelatorTable()
    for (g, d, b), value in records.items():
        table.record(g, d, b, value, "wk")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "segment.txt")
        table.append_new(path)
        with open(path, "rb") as fh:
            return fh.read()


@st.composite
def segmented_files(draw):
    """(the bytes of a cache file, records recorded before the load):
    `cache_files` lines in runs with an `append_new` segment after each
    run but the last, and perhaps one byte of a segment flipped, a
    segment cut short, the file torn inside its last segment, a segment
    glued to the end of a line, or a key of the first segment repeated in
    a later one with the same or another value."""
    lines, earlier, _ = draw(cache_files())
    keys = _LOAD_KEYS
    if earlier:
        keys = st.one_of(keys, st.sampled_from(sorted(earlier, key=repr)))
    segments = draw(st.lists(st.dictionaries(
        keys, st.fractions(max_denominator=10 ** 6), min_size=1, max_size=5),
        min_size=1, max_size=3))
    fault = draw(st.sampled_from([None, "flip", "flip", "cut", "tear",
                                  "glue", "repeat"]))
    if fault == "repeat" and len(segments) > 1:
        key = draw(st.sampled_from(sorted(segments[0], key=repr)))
        later = segments[draw(st.integers(1, len(segments) - 1))]
        later[key] = segments[0][key] + draw(st.sampled_from([0, 1]))
    blobs = [_segment(records) for records in segments]
    if fault in ("flip", "cut", "tear"):
        i = len(blobs) - 1 if fault == "tear" else draw(
            st.integers(0, len(blobs) - 1))
        at = draw(st.integers(0, len(blobs[i]) - 1))
        if fault == "tear":
            # inside the last digits of a value, where the line left is
            # mostly a record itself
            ends = [k for k, c in enumerate(blobs[i]) if c == ord("\n")]
            at = draw(st.sampled_from(ends[1:])) - draw(st.integers(0, 3))
        if fault == "flip":
            # mostly to a byte a cache line may hold, so the file decodes
            byte = draw(st.sampled_from(b"0123456789|,:/-# \n\r\x0cx\xff")
                        .filter(lambda c: c != blobs[i][at]))
            blobs[i] = blobs[i][:at] + bytes([byte]) + blobs[i][at + 1:]
        else:
            blobs[i] = blobs[i][:at]
    cuts = sorted(draw(st.lists(st.integers(0, len(lines)),
                                min_size=len(blobs), max_size=len(blobs))))
    runs = ["\n".join(lines[a:b])
            for a, b in zip([0] + cuts, cuts + [len(lines)])]
    if fault == "tear":
        runs[-1] = ""
    # a run ends its last line before the next segment, but for a glued one
    glued = draw(st.integers(0, len(blobs) - 1)) if fault == "glue" else None
    data = b"".join((run + ("\n" if run and i != glued else "")).encode("ascii")
                    + blob for i, (run, blob) in enumerate(zip(runs, blobs)))
    return data + runs[-1].encode("ascii"), earlier


_HEADER = re.compile(rb"^#seg v1 records=\d{1,18} bytes=(\d{1,18}) "
                     rb"crc32=[0-9a-f]{8}\n", re.M)


def torn_reference_load(table, path):
    """`reference_load`, but for a file cut short inside a segment: when a
    header counts more bytes than follow it and the last line has no
    newline, the lines before that one are loaded, then ValueError."""
    with open(path, "rb") as fh:
        data = fh.read()
    data.decode("ascii")
    if data.endswith((b"\n", b"\r")) or not any(
            m.end() + int(m[1]) > len(data) for m in _HEADER.finditer(data)):
        return reference_load(table, path)
    head = path + ".head"
    with open(head, "wb") as fh:
        fh.write(data[:max(data.rfind(b"\n"), data.rfind(b"\r")) + 1])
    reference_load(table, head)
    raise ValueError("last line cut short")


@settings(max_examples=150, deadline=None)
@given(segmented_files())
def test_segmented_load_matches_eager_reference(case):
    """A file of segments between hand-written lines, with a segment
    flipped, cut short, glued to a line or repeating a key, loads as the
    eager loader loads it, which reads every header as a comment and
    checks every record line: the same values, provenance, length and
    count, or the same exception class.  A file whose last line lacks its
    newline inside a segment cut short is refused once the lines before
    it have loaded."""
    data, earlier = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cache.txt")
        with open(path, "wb") as fh:
            fh.write(data)
        indexed, eager = CorrelatorTable(), CorrelatorTable()
        for table in (indexed, eager):
            for (g, d, b), value in earlier.items():
                table.record(g, d, b, value, "wk")
        got = _outcome(CorrelatorTable.load, indexed, path)
        assert got == _outcome(torn_reference_load, eager, path), (data,
                                                                 earlier)
    if got[0] == "loaded":
        assert len(indexed) == len(eager)
        assert indexed.values == eager.values
        assert indexed.provenance == eager.provenance


def test_long_line_probe_measures_every_line():
    """The probe that keeps an over-long integer out of a trusted segment
    finds a line longer than the limit exactly when one exists, though it
    measures only the lines through points `limit` apart: every length
    around the limit, at every offset from those points."""
    for limit in range(1, 7):
        for offset in range(limit + 1):
            for length in range(2 * limit + 2):
                text = f"#seg\n{'0' * offset}\n{'1' * length}\n2/3\n"
                assert _has_line_over(text, 5, len(text), limit) == \
                    (max(offset, length, 3) > limit), (limit, offset, length)


def test_clean_segments_skip_the_line_check(tmp_path, monkeypatch):
    """The records of a segment that matches its header never reach the
    line check, unless one of its keys is in the table already: loaded
    from an earlier segment, or recorded before the load."""
    path = tmp_path / "cache.txt"
    seen = {(1, (1,), EMPTY): Fraction(1, 24),
            (2, (4,), EMPTY): Fraction(1, 1152),
            (0, (0, 0, 0), EMPTY): Fraction(1)}
    keys = list(seen)
    for segment in (keys[:2], keys[2:], keys[:1]):
        with open(path, "ab") as fh:
            fh.write(_segment({key: seen[key] for key in segment}))
    checked = []
    check = CorrelatorTable._check_lines
    monkeypatch.setattr(CorrelatorTable, "_check_lines",
                        lambda self, text, filed: checked.append(text)
                        or check(self, text, filed))
    assert CorrelatorTable().load(str(path)) == 4
    assert [text for text in checked if text] == ["1|1||1/24\n"]
    checked.clear()
    table = CorrelatorTable()
    table.record(0, (0, 0, 0), EMPTY, Fraction(1), "wk")
    assert table.load(str(path)) == 4
    assert [text for text in checked if text] == ["0|0,0,0||1/1\n",
                                                  "1|1||1/24\n"]
    assert table.values == seen


def test_header_with_overlong_counts_is_a_comment(tmp_path):
    """A header whose counts have more digits than int() reads is no
    segment header, only a comment, as it is to the eager loader."""
    path = tmp_path / "cache.txt"
    path.write_text(f"#seg v1 records=1 bytes={'9' * 5000} crc32=00000000\n"
                    "1|1||1/24\n")
    table = CorrelatorTable()
    assert table.load(str(path)) == reference_load(CorrelatorTable(), str(path))
    assert table.values == {(1, (1,), EMPTY): Fraction(1, 24)}
