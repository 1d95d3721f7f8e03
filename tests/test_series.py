"""Differential tests of the series layer against its earlier implementation.

`ref_exp` sums G^k/k! power by power under a structural cap and then
admits by divisor closure; `RefVirasoro.apply` computes a coefficient for
every image of every monomial, admitted or stored, and admits from the
images of every admitted monomial; `ref_mul` forms every product of terms
and then admits the candidates whose every divisor pair is admitted;
`ref_generating_series` walks the cap box monomial by monomial and solves
each one's genus from the monomial; `ref_substitution` expands every F
term forward through (t_k + p_k)^e and then admits a G monomial when all
the pure-psi monomials that feed it are admitted in F.  They are kept
here, test-only, as the independent references for the graded `exp`, the
`VirasoroOperator.apply` that pulls each admitted coefficient from its
sources, the split-sum `TruncatedSeries.mul`, the level-walk
`mixed_generating_series` and the pulled `substitution_check`: outputs
must agree exactly, terms and admission sets alike.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taukappa.core import (MultiIndex, double_factorial,
                           enumerate_sub_multiindices, multiindices_of_weight,
                           multiindices_up_to_weight)
from taukappa.recursion import RecursionEngine, gamma_constant
from taukappa.series import (EMPTY_MONO, TruncatedSeries, merge_exponents,
                             mono_mul)
from taukappa.virasoro import (VirasoroOperator, build_partition_function,
                               mixed_generating_series, p_polynomial,
                               substitution_check)

TRUNCATIONS = [(1, 4, 0), (2, 3, 1), (3, 4, 2)]
KS = range(-1, 4)


# -- reference implementation ---------------------------------------------


def _ref_merge(a, b, sign=1):
    out = dict(a)
    for i, e in b:
        out[i] = out.get(i, 0) + sign * e
        if out[i] < 0:
            raise ValueError("negative exponent in monomial merge")
    return tuple(sorted((i, e) for i, e in out.items() if e))


def _ref_mono_mul(m1, m2):
    return (_ref_merge(m1[0], m2[0]), _ref_merge(m1[1], m2[1]))


def _ref_divisors(m):
    tpart, spart = m
    tvars = [(("t", i), e) for i, e in tpart] + [(("s", i), e) for i, e in spart]
    for choice in product(*[range(e + 1) for _, e in tvars]):
        tsel, ssel = [], []
        for ((kind, i), _), e in zip(tvars, choice):
            if e:
                (tsel if kind == "t" else ssel).append((i, e))
        yield (tuple(tsel), tuple(ssel))


def ref_exp(series, keep, region):
    """exp by summing G^k/k!, products filtered by the cap `keep`."""
    acc = {EMPTY_MONO: Fraction(1)}
    power = {EMPTY_MONO: Fraction(1)}
    k = 0
    while power:
        k += 1
        nxt = {}
        for m1, c1 in power.items():
            for m2, c2 in series.terms.items():
                m = _ref_mono_mul(m1, m2)
                if not keep(m):
                    continue
                s = nxt.get(m, Fraction(0)) + c1 * c2
                if s:
                    nxt[m] = s
                else:
                    nxt.pop(m, None)
        power = nxt
        for m, c in power.items():
            s = acc.get(m, Fraction(0)) + c / factorial(k)
            if s:
                acc[m] = s
            else:
                acc.pop(m, None)
    if series.admitted is None:
        return TruncatedSeries(acc, None)
    adm = {m for m in region
           if all(d in series.admitted for d in _ref_divisors(m)
                  if d != EMPTY_MONO)}
    return TruncatedSeries(acc, adm)


def ref_mul(a, b, region=None):
    """Every product of terms; with a truncated factor, admission on the
    candidates (`region`, else every product formed) whose divisor pairs
    are all admitted."""
    terms, formed = {}, set()
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = _ref_mono_mul(m1, m2)
            formed.add(m)
            terms[m] = terms.get(m, Fraction(0)) + c1 * c2
    if a.admitted is None and b.admitted is None:
        return TruncatedSeries(terms, None)
    adm = {m for m in (formed if region is None else region)
           if all(a.is_admitted(d) and b.is_admitted(_ref_quotient(m, d))
                  for d in _ref_divisors(m))}
    return TruncatedSeries(terms, adm)


def _ref_quotient(m, d):
    return (_ref_merge(m[0], d[0], -1), _ref_merge(m[1], d[1], -1))


def _ref_t_shift(m, idx, delta):
    part = dict(m[0])
    part[idx] = part.get(idx, 0) + delta
    if part[idx] < 0:
        raise ValueError("negative t exponent")
    return (tuple(sorted((i, e) for i, e in part.items() if e)), m[1])


def _ref_s_mult(m, L):
    part = dict(m[1])
    for i, e in L.entries:
        part[i] = part.get(i, 0) + e
    return (m[0], tuple(sorted((i, e) for i, e in part.items() if e)))


def _ref_s_div(m, L):
    part = dict(m[1])
    for i, e in L.entries:
        part[i] = part.get(i, 0) - e
        if part[i] < 0:
            raise ValueError("s part does not divide")
    return (m[0], tuple(sorted((i, e) for i, e in part.items() if e)))


class RefVirasoro:
    """V_k with every image coefficient computed, admitted or not."""

    def __init__(self, k):
        self.k = k

    def _images(self, m):
        k = self.k
        for it, e in m[0]:
            w = it - k - 1
            if w >= 0:
                base = _ref_t_shift(m, it, -1)
                pref = Fraction(-e, 2) * double_factorial(2 * it + 1)
                for L in multiindices_of_weight(w):
                    yield _ref_s_mult(base, L), pref * gamma_constant(L)
            j = it - k
            if j >= 0:
                out = _ref_t_shift(_ref_t_shift(m, it, -1), j, 1)
                yield out, (Fraction(e, 2)
                            * Fraction(double_factorial(2 * it + 1),
                                       double_factorial(2 * j - 1)))
        texp = dict(m[0])
        for d1 in range(max(k, 0)):
            d2 = k - 1 - d1
            if d1 == d2:
                fac = texp.get(d1, 0) * (texp.get(d1, 0) - 1)
            else:
                fac = texp.get(d1, 0) * texp.get(d2, 0)
            if fac:
                out = _ref_t_shift(_ref_t_shift(m, d1, -1), d2, -1)
                yield out, (Fraction(fac, 4) * double_factorial(2 * d1 + 1)
                            * double_factorial(2 * d2 + 1))
        if k == -1:
            yield _ref_t_shift(_ref_t_shift(m, 0, 1), 0, 1), Fraction(1, 4)
        if k == 0:
            yield m, Fraction(1, 16)

    def _preimages(self, m):
        k = self.k
        for L, _rest in enumerate_sub_multiindices(MultiIndex(m[1])):
            yield _ref_t_shift(_ref_s_div(m, L), L.weight + k + 1, 1)
        for j, _e in m[0]:
            if j + k >= 0:
                yield _ref_t_shift(_ref_t_shift(m, j, -1), j + k, 1)
        for d1 in range(max(k, 0)):
            yield _ref_t_shift(_ref_t_shift(m, d1, 1), k - 1 - d1, 1)
        if k == -1 and dict(m[0]).get(0, 0) >= 2:
            yield _ref_t_shift(_ref_t_shift(m, 0, -1), 0, -1)
        if k == 0:
            yield m

    def apply(self, series):
        terms = {}
        for m, c in series.terms.items():
            for out, coef in self._images(m):
                s = terms.get(out, Fraction(0)) + c * coef
                if s:
                    terms[out] = s
                else:
                    terms.pop(out, None)
        if series.admitted is None:
            return TruncatedSeries(terms, None)
        cands = {out for m in series.admitted for out, _ in self._images(m)}
        adm = {m for m in cands
               if all(p in series.admitted for p in self._preimages(m))}
        return TruncatedSeries(terms, adm)


def _in_caps(nmax, bmax, tmax):
    def keep(m):
        return (sum(e for _, e in m[0]) <= nmax
                and sum(i * e for i, e in m[1]) <= bmax
                and all(i <= tmax for i, _ in m[0]))
    return keep


def _ref_genus(m):
    """The genus the dimension constraint forces on m, or None."""
    n = sum(e for _, e in m[0])
    dim = sum(i * e for i, e in m[0]) + sum(i * e for i, e in m[1])
    g, rem = divmod(dim - n + 3, 3)
    return None if rem or g < 0 else g


def ref_generating_series(gmax, nmax, bmax, engine):
    """G over every monomial of the cap box, each genus solved from it."""
    tmax = max(3 * gmax - 3 + nmax, 0)
    terms, admitted, tparts = {}, set(), []
    for size in range(nmax + 1):
        for combo in combinations_with_replacement(range(tmax + 1), size):
            counts = {}
            for i in combo:
                counts[i] = counts.get(i, 0) + 1
            tparts.append(tuple(sorted(counts.items())))
    for tpart in tparts:
        for b in multiindices_up_to_weight(bmax):
            m = (tpart, b.entries)
            g, n = _ref_genus(m), sum(e for _, e in tpart)
            stable = g is not None and 2 * g - 2 + n > 0
            if stable and g > gmax:
                continue
            admitted.add(m)
            if not stable:
                continue
            d = [i for i, e in tpart for _ in range(e)]
            val = engine.value(g, d, b)
            sym = 1
            for _, e in tpart + b.entries:
                sym *= factorial(e)
            if val:
                terms[m] = val / sym
    return TruncatedSeries(terms, admitted)


def _ref_shift_power(k, e):
    """(t_k + p_k)^e as a monomial dict."""
    base = {(((k, 1),), ()): Fraction(1)}
    for L, c in p_polynomial(k).items():
        base[((), L.entries)] = c
    power = {EMPTY_MONO: Fraction(1)}
    for _ in range(e):
        nxt = {}
        for m1, c1 in power.items():
            for m2, c2 in base.items():
                m = _ref_mono_mul(m1, m2)
                nxt[m] = nxt.get(m, Fraction(0)) + c1 * c2
        power = nxt
    return power


def ref_substitution(gmax, nmax, bmax, engine):
    """The residual of G = F(t_0, t_1, t_2 + p_2, ...) by forward expansion
    of every F term, both sides from `ref_generating_series`."""
    keep = _in_caps(nmax, bmax, max(3 * gmax - 3 + nmax, 0))
    F = ref_generating_series(gmax, nmax + bmax, 0, engine)
    direct = ref_generating_series(gmax, nmax, bmax, engine)
    sub = {}
    for m, c in F.terms.items():
        expansion = {(tuple((i, e) for i, e in m[0] if i <= 1), ()): c}
        for i, e in m[0]:
            if i <= 1:
                continue
            nxt, power = {}, _ref_shift_power(i, e)
            for m1, c1 in expansion.items():
                for m2, c2 in power.items():
                    mm = _ref_mono_mul(m1, m2)
                    if keep(mm):
                        nxt[mm] = nxt.get(mm, Fraction(0)) + c1 * c2
            expansion = nxt
        for mm, cc in expansion.items():
            sub[mm] = sub.get(mm, Fraction(0)) + cc
    admitted = set()
    for m in direct.admitted:
        # every way to trade s^L for shifted t_k: parts k - 1 of a
        # partition of |L|, each source monomial pure psi
        w = sum(i * e for i, e in m[1])
        sources = [_ref_mono_mul((m[0], ()),
                                 (tuple((j + 1, e) for j, e in c.entries), ()))
                   for c in multiindices_of_weight(w)]
        if all(F.is_admitted(src) for src in sources):
            admitted.add(m)
    return TruncatedSeries(sub, admitted) - direct


def assert_same(new, ref):
    assert new.terms == ref.terms
    assert new.admitted == ref.admitted


# -- differential tests -----------------------------------------------------


@pytest.fixture(scope="module")
def partition_functions():
    """(G, exp(G)) at each truncation, from one shared engine."""
    eng = RecursionEngine()
    out = {}
    for gmax, nmax, bmax in TRUNCATIONS:
        G = mixed_generating_series(gmax, nmax, bmax, eng)
        out[(gmax, nmax, bmax)] = (G, build_partition_function(
            gmax, nmax, bmax, eng))
    return out


@pytest.mark.parametrize("caps", TRUNCATIONS)
def test_exp_matches_power_loop(partition_functions, caps):
    gmax, nmax, bmax = caps
    G, Z = partition_functions[caps]
    ref = ref_exp(G, _in_caps(nmax, bmax, max(3 * gmax - 3 + nmax, 0)),
                  G.admitted)
    assert_same(Z, ref)
    assert_same(G.exp(), ref)
    assert Z.coefficient(EMPTY_MONO) == 1


@pytest.mark.parametrize("caps", TRUNCATIONS)
@pytest.mark.parametrize("k", KS)
def test_apply_matches_reference(partition_functions, caps, k):
    _, Z = partition_functions[caps]
    assert_same(VirasoroOperator(k).apply(Z), RefVirasoro(k).apply(Z))


def _probe(rng):
    terms = {}
    for _ in range(6):
        tpart = tuple(sorted({i: rng.randint(1, 3) for i in
                              rng.sample(range(6), rng.randint(0, 3))}.items()))
        spart = tuple(sorted({j: rng.randint(1, 2) for j in
                              rng.sample([1, 2, 3], rng.randint(0, 2))}.items()))
        terms[(tpart, spart)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return TruncatedSeries(terms)


def test_apply_matches_reference_on_exact_probes():
    rng = random.Random(2718)
    for _ in range(8):
        probe = _probe(rng)
        for k in KS:
            new, ref = VirasoroOperator(k), RefVirasoro(k)
            image = new.apply(probe)
            assert_same(image, ref.apply(probe))
            assert image.admitted is None
            # the composites a commutator check forms, on the same instance
            for n in KS:
                assert_same(new.apply(VirasoroOperator(n).apply(probe)),
                            ref.apply(RefVirasoro(n).apply(probe)))


@pytest.mark.parametrize("caps", TRUNCATIONS + [(2, 6, 0)])
def test_generating_series_matches_box_walk(partition_functions, caps):
    G = (partition_functions[caps][0] if caps in partition_functions
         else mixed_generating_series(*caps, RecursionEngine()))
    assert_same(G, ref_generating_series(*caps, RecursionEngine()))


# the sources of one monomial share its genus and point count, so only
# F's t-index cap, 3 gmax - 3 + nmax + bmax, can admit some and not all:
# (0, 3, 2) is a truncation where it does
@pytest.mark.parametrize("caps", [(0, 3, 1), (1, 2, 1), (2, 2, 2), (2, 1, 3),
                                  (2, 3, 1), (3, 3, 2), (0, 3, 2)])
def test_substitution_matches_forward_expansion(caps):
    eng = RecursionEngine()
    res = substitution_check(*caps, eng)
    assert_same(res, ref_substitution(*caps, eng))
    assert res.admitted


def test_exp_needs_a_truncated_series_with_no_constant_term():
    with pytest.raises(ValueError):
        TruncatedSeries({(((0, 1),), ()): Fraction(1)}).exp()
    with pytest.raises(ValueError):
        TruncatedSeries({EMPTY_MONO: Fraction(1)}, {EMPTY_MONO}).exp()


# -- property test -----------------------------------------------------------

# a cap box of monomials in t_0..t_3 and s_1, s_2
BOX_T, BOX_S = range(4), (1, 2)


def _box(nmax, bmax):
    out = []
    for texps in product(range(nmax + 1), repeat=len(BOX_T)):
        if sum(texps) > nmax:
            continue
        for sexps in product(range(bmax + 1), repeat=len(BOX_S)):
            if sum(i * e for i, e in zip(BOX_S, sexps)) > bmax:
                continue
            out.append((tuple((i, e) for i, e in zip(BOX_T, texps) if e),
                        tuple((i, e) for i, e in zip(BOX_S, sexps) if e)))
    return out


@st.composite
def truncated_series(draw):
    """A series with no constant term, its admission set drawn from a box."""
    nmax, bmax = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    box = _box(nmax, bmax)
    admitted = [m for m in box if draw(st.integers(0, 9)) < 8]
    nonconst = [m for m in admitted if m != EMPTY_MONO]
    support = draw(st.lists(st.sampled_from(nonconst), max_size=6,
                            unique=True)) if nonconst else []
    terms = {m: Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 5)))
             for m in support}
    return TruncatedSeries(terms, admitted), _in_caps(nmax, bmax, 3)


@settings(max_examples=100, deadline=None)
@given(truncated_series())
def test_graded_exp_and_apply_equal_references(drawn):
    G, keep = drawn
    assert_same(G.exp(), ref_exp(G, keep, G.admitted))
    # admission sets that are not divisor-closed reach every source rule
    for k in KS:
        assert_same(VirasoroOperator(k).apply(G), RefVirasoro(k).apply(G))


@st.composite
def series_pairs(draw):
    """Two factors from `truncated_series`, either of them possibly made
    exact, and a region drawn from the largest box."""
    (a, _), (b, _) = draw(truncated_series()), draw(truncated_series())
    if draw(st.booleans()):
        a = TruncatedSeries(a.terms)
    elif draw(st.booleans()):
        b = TruncatedSeries(b.terms)
    region = draw(st.none() | st.sets(st.sampled_from(_box(3, 2))))
    return a, b, region


@settings(max_examples=100, deadline=None)
@given(series_pairs())
def test_mul_equals_all_pairs_reference(drawn):
    a, b, region = drawn
    assert_same(a.mul(b, region=region), ref_mul(a, b, region))


def test_mul_matches_reference_on_the_kdv_product():
    """The product `kdv_residual` forms, at a real truncation."""
    F = mixed_generating_series(2, 6, 0, RecursionEngine())
    U = F.derivative(0).derivative(0)
    U0, region = U.derivative(0), U.derivative(1).admitted
    assert_same(U.mul(U0, region=region), ref_mul(U, U0, region))


@st.composite
def monomials(draw):
    tpart = draw(st.dictionaries(st.integers(0, 5), st.integers(1, 3),
                                 max_size=3))
    spart = draw(st.dictionaries(st.integers(1, 3), st.integers(1, 2),
                                 max_size=2))
    return tuple(sorted(tpart.items())), tuple(sorted(spart.items()))


@settings(max_examples=200, deadline=None)
@given(monomials())
def test_quotient_by_t_k_plus_1_is_image_and_preimage(m):
    """The lemma behind the candidates of a truncated `apply`: m t_{k+1}
    is a source of m, and m an image of m t_{k+1}, for every k."""
    for k in KS:
        op = VirasoroOperator(k)
        up = mono_mul(m, (((k + 1, 1),), ()))
        assert up in {src for src, _, _ in op._sources(m)}
        assert m in set(op._images(up))


@settings(max_examples=200, deadline=None)
@given(monomials(), monomials())
def test_images_and_sources_are_inverse_maps(m, other):
    """out is among `_images(m)` exactly when m is an input among
    `_sources(out)`, and every multiplicity a source carries is positive:
    checked on m's images, on m itself and on an unrelated monomial, and
    from the other side on that monomial's sources."""
    for k in KS:
        op = VirasoroOperator(k)
        images = set(op._images(m))
        for out in images | {m, other}:
            sources = list(op._sources(out))
            assert all(mult > 0 for _, mult, _ in sources)
            assert (out in images) == (m in {src for src, _, _ in sources})
        for src, _, _ in op._sources(other):
            assert other in set(op._images(src))


@st.composite
def exponent_merges(draw):
    """A sorted exponent tuple, a second tuple of (index, exponent) entries
    in any order (indices may repeat, as in V_k's second-derivative
    deltas) with exponents -3..3, and a sign."""
    a = draw(st.dictionaries(st.integers(0, 6), st.integers(1, 3),
                             max_size=5))
    b = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(-3, 3)),
                      max_size=4))
    return tuple(sorted(a.items())), tuple(b), draw(st.sampled_from([1, -1]))


@settings(max_examples=300, deadline=None)
@given(exponent_merges())
def test_spliced_merge_equals_dict_reference(drawn):
    a, b, sign = drawn
    try:
        want = _ref_merge(a, b, sign)
    except ValueError:
        with pytest.raises(ValueError):
            merge_exponents(a, b, sign)
    else:
        assert merge_exponents(a, b, sign) == want
