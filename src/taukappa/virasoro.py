"""Virasoro operators on the mixed generating function, and the change of
variables tying kappa volumes to the pure-psi series.

The generating function G(s, t) sums every mixed correlator weighted by
s^m/m! prod t_i^{n_i}/n_i!.  The operators V_k (k >= -1) annihilate
exp(G) and close under [V_n, V_m] = (n - m) V_{n+m}; both statements are
checked coefficientwise at a chosen truncation.  The k = 0 constant term
is 1/16: that value is forced both by the empty-monomial coefficient of
V_0 exp(G) (through <tau_1>_1 = 1/24) and by [V_1, V_-1] = 2 V_0.

The substitution check expands F(t_0, t_1, t_2 + p_2, t_3 + p_3, ...)
with p_k = sum_{|L| = k-1} (-1)^(||L||-1) s^L / L! and compares it
coefficientwise against G built directly from the mixed recursion.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

from .core import (Memo, MultiIndex, double_factorial,
                   enumerate_sub_multiindices, multiindices_of_weight,
                   multiindices_up_to_weight)
from .recursion import RecursionEngine
from .series import (EMPTY_MONO, Monomial, TruncatedSeries, format_monomial,
                     genus_of_monomial, is_stable_shape, merge_exponents,
                     mono_mul, mono_s_weight, mono_t_count, shifted_down,
                     symmetry_factor)

__all__ = [
    "gamma_constant", "VirasoroOperator", "mixed_generating_series",
    "build_partition_function", "virasoro_residual_report",
    "commutator_check", "p_polynomial", "substitution_check", "kdv_residual",
]

V0_CONSTANT = Fraction(1, 16)


def gamma_constant(L: MultiIndex) -> Fraction:
    """gamma_L = (-1)^||L|| / (L! (2|L|+1)!!)."""
    return Fraction((-1) ** L.size,
                    L.factorial() * double_factorial(2 * L.weight + 1))


class VirasoroOperator:
    """V_k as a symbolic operator acting on truncated series.

    Term groups: (a) -1/2 (2(|L|+k)+3)!! gamma_L s^L d/dt_{|L|+k+1};
    (b) 1/2 (2(j+k)+1)!!/(2j-1)!! t_j d/dt_{j+k}; (c) for k >= 1,
    1/4 (2d1+1)!!(2d2+1)!! d^2/dt_{d1}dt_{d2} over d1+d2 = k-1;
    (d) the constants t_0^2/4 at k = -1 and 1/16 at k = 0.

    The coefficient tables the action reads are filled on first use and
    kept on the instance, so one operator applied to a long series builds
    each gamma_L, each s-part product and each s-part split once.
    """

    def __init__(self, k: int):
        if k < -1:
            raise ValueError("Virasoro index starts at -1")
        self.k = k
        # w -> [(L, gamma_L)] over |L| = w
        self._gammas = Memo(lambda w: [(L, gamma_constant(L))
                                       for L in multiindices_of_weight(w)])
        # (s-part, i) -> [(s-part * s^L, group (a) coefficient of d/dt_i)]
        self._raised = Memo(lambda key: [
            (merge_exponents(key[0], L.entries),
             Fraction(-double_factorial(2 * key[1] + 1), 2) * gamma)
            for L, gamma in self._gammas[key[1] - k - 1]])
        # i -> group (b) coefficient of t_{i-k} d/dt_i
        self._scale = Memo(lambda i: Fraction(
            double_factorial(2 * i + 1), 2 * double_factorial(2 * (i - k) - 1)))
        # s-part -> [(s-part / s^L, t-part delta t_{|L|+k+1})] over L <= s-part
        self._lowered = Memo(lambda s: [
            (rest.entries, ((L.weight + k + 1, 1),))
            for L, rest in enumerate_sub_multiindices(MultiIndex(s))])
        # group (c): (t-part delta 1/(t_d1 t_d2), coefficient)
        self._pairs = [(((d1, -1), (k - 1 - d1, -1)),
                        Fraction(double_factorial(2 * d1 + 1)
                                 * double_factorial(2 * k - 2 * d1 - 1), 4))
                       for d1 in range(max(k, 0))]

    def term_list(self, s_weight_bound: int, j_bound: int):
        """Explicit symbolic terms with the s-sum cut at the given weight."""
        k = self.k
        terms = [("s_shift", coef, MultiIndex(sp), w + k + 1)
                 for w in range(s_weight_bound + 1)
                 for sp, coef in self._raised[((), w + k + 1)]]
        terms += [("scale", self._scale[j + k], j, j + k)
                  for j in range(j_bound + 1) if j + k >= 0]
        terms += [("second", coef, d1, d2)
                  for ((d1, _), (d2, _)), coef in self._pairs]
        if k == -1:
            terms.append(("const_t0sq", Fraction(1, 4)))
        if k == 0:
            terms.append(("const", V0_CONSTANT))
        return terms

    # -- forward action ----------------------------------------------------

    def _images(self, m: Monomial):
        """(output monomial, multiplicity, coefficient) for every term of
        V_k acting on m; the term adds multiplicity * coefficient times m's
        coefficient to the output."""
        k = self.k
        t, s = m
        for i, e in t:
            lowered = merge_exponents(t, ((i, -1),))
            if i > k:
                # group (a): derivative at t_i, s^L with |L| = i - k - 1
                for sp, coef in self._raised[(s, i)]:
                    yield (lowered, sp), e, coef
            if i >= k:
                # group (b): t_{i-k} d/dt_i
                yield ((merge_exponents(lowered, ((i - k, 1),)), s), e,
                       self._scale[i])
        texp = dict(t)
        for delta, coef in self._pairs:
            (d1, _), (d2, _) = delta
            fac = texp.get(d1, 0) * (texp.get(d2, 0) - (d1 == d2))
            if fac > 0:
                yield (merge_exponents(t, delta), s), fac, coef
        if k == -1:
            yield (merge_exponents(t, ((0, 2),)), s), 1, Fraction(1, 4)
        if k == 0:
            yield m, 1, V0_CONSTANT

    def _preimages(self, m: Monomial):
        """Every input monomial some term of V_k could map onto m."""
        k = self.k
        t, s = m
        for sp, delta in self._lowered[s]:
            yield (merge_exponents(t, delta), sp)
        for j, _e in t:
            if j + k >= 0:
                yield (merge_exponents(t, ((j, -1), (j + k, 1))), s)
        for delta, _ in self._pairs:
            yield (merge_exponents(t, delta, -1), s)
        if k == -1 and dict(t).get(0, 0) >= 2:
            yield (merge_exponents(t, ((0, -2),)), s)
        if k == 0:
            yield m

    def apply(self, series: TruncatedSeries) -> TruncatedSeries:
        """V_k applied to a series.  An output is admitted when it is the
        image of an admitted monomial and every monomial that could feed it
        is admitted.  Those outputs are the quotients m / t_{k+1} of
        admitted m whose preimages are all admitted: m t_{k+1} is always a
        preimage of m (the L = 0 entry of `_lowered`), and m is always an
        image of m t_{k+1} (group (a) at i = k+1, L = 0).  So admission is
        decided from those quotients first, and coefficients are summed
        for the admitted images of the stored terms only."""
        adm = None
        if series.admitted is not None:
            admitted = series.admitted
            adm = {m for m in shifted_down(admitted, (((self.k + 1, 1),), ()))
                   if all(p in admitted for p in self._preimages(m))}
        terms: dict[Monomial, Fraction] = {}
        for m, c in series.terms.items():
            for out, mult, coef in self._images(m):
                if adm is None or out in adm:
                    s = terms.get(out, 0) + c * mult * coef
                    if s:
                        terms[out] = s
                    else:
                        terms.pop(out, None)
        return TruncatedSeries(terms, adm)


# -- generating series -------------------------------------------------------


def _caps_monomials(nmax: int, bmax: int, tmax: int):
    sparts = [L.entries for L in multiindices_up_to_weight(bmax)]
    for size in range(nmax + 1):
        for combo in combinations_with_replacement(range(tmax + 1), size):
            counts: dict[int, int] = {}
            for i in combo:
                counts[i] = counts.get(i, 0) + 1
            tpart = tuple(sorted(counts.items()))
            for sp in sparts:
                yield (tpart, sp)


def _caps_keep(nmax: int, bmax: int, tmax: int):
    def keep(m: Monomial) -> bool:
        return (mono_t_count(m) <= nmax and mono_s_weight(m) <= bmax
                and all(i <= tmax for i, _ in m[0]))
    return keep


def mixed_generating_series(gmax: int, nmax: int, bmax: int,
                            engine: RecursionEngine) -> TruncatedSeries:
    """G(s, t) truncated to n <= nmax insertions, kappa weight <= bmax,
    t-indices <= 3 gmax - 3 + nmax and genus <= gmax; every monomial in the
    cap region whose coefficient those bounds determine is admitted
    (including the known zeros)."""
    tmax = max(3 * gmax - 3 + nmax, 0)
    terms: dict[Monomial, Fraction] = {}
    admitted = set()
    for m in _caps_monomials(nmax, bmax, tmax):
        g = genus_of_monomial(m)
        n = mono_t_count(m)
        if g is not None and is_stable_shape(g, n) and g > gmax:
            continue        # computable, but outside the requested bounds
        admitted.add(m)
        if g is None or not is_stable_shape(g, n):
            continue
        b = MultiIndex(m[1])
        if n == 0:
            val = engine.pure_kappa_volume(g, b)
        else:
            d = [i for i, e in m[0] for _ in range(e)]
            val = engine.value(g, d, b)
        if val:
            terms[m] = val / symmetry_factor(m)
    return TruncatedSeries(terms, admitted)


def build_partition_function(gmax: int, nmax: int, bmax: int,
                             engine: RecursionEngine) -> TruncatedSeries:
    """exp(G) at the given truncation, admission by divisor closure."""
    return mixed_generating_series(gmax, nmax, bmax, engine).exp()


def virasoro_residual_report(k: int, Z: TruncatedSeries):
    """All admitted coefficients of V_k Z for a partition function Z =
    exp(G); the contract is that the nonzero list is empty.  Returns
    (nonzero pairs, number checked)."""
    image = VirasoroOperator(k).apply(Z)
    nonzero = [(format_monomial(m), c) for m, c in image.nonzero_admitted()]
    return nonzero, len(image.admitted)


def commutator_check(n: int, m: int, probe: TruncatedSeries) -> TruncatedSeries:
    """([V_n, V_m] - (n - m) V_{n+m}) applied to an exact probe; the result
    is exact and must be identically zero."""
    vn, vm = VirasoroOperator(n), VirasoroOperator(m)
    lhs = vn.apply(vm.apply(probe)) - vm.apply(vn.apply(probe))
    rhs = VirasoroOperator(n + m).apply(probe).scaled(n - m)
    return lhs - rhs


# -- change of variables -----------------------------------------------------


def p_polynomial(k: int) -> dict[MultiIndex, Fraction]:
    """p_k = sum over |L| = k-1 of (-1)^(||L||-1) s^L / L!, for k >= 2."""
    if k < 2:
        raise ValueError("the substitution only shifts t_k for k >= 2")
    return {L: Fraction((-1) ** (L.size - 1), L.factorial())
            for L in multiindices_of_weight(k - 1)}


def _shift_powers(k: int, emax: int):
    """(t_k + p_k)^e for e <= emax as monomial dicts."""
    base: dict[Monomial, Fraction] = {(((k, 1),), ()): Fraction(1)}
    for L, c in p_polynomial(k).items():
        base[((), L.entries)] = c
    powers = [{EMPTY_MONO: Fraction(1)}]
    for _ in range(emax):
        prev = powers[-1]
        nxt: dict[Monomial, Fraction] = {}
        for m1, c1 in prev.items():
            for m2, c2 in base.items():
                mm = mono_mul(m1, m2)
                s = nxt.get(mm, Fraction(0)) + c1 * c2
                if s:
                    nxt[mm] = s
        powers.append(nxt)
    return powers


def substitution_check(gmax: int, nmax: int, bmax: int,
                       engine: RecursionEngine) -> TruncatedSeries:
    """Residual of G(s, t) = F(t_0, t_1, t_2 + p_2, t_3 + p_3, ...).

    F is built with n <= nmax + bmax insertions so that every pure-psi
    coefficient feeding an admitted mixed monomial is available; the
    residual is admitted exactly where both sides are."""
    tmax = max(3 * gmax - 3 + nmax, 0)
    F = mixed_generating_series(gmax, nmax + bmax, 0, engine)
    keep = _caps_keep(nmax, bmax, tmax)

    # forward substitution of the stored F terms
    sub_terms: dict[Monomial, Fraction] = {}
    power_cache: dict[tuple, list] = {}
    for m, c in F.terms.items():
        # start from the unshifted t_0, t_1 block
        low = tuple((i, e) for i, e in m[0] if i <= 1)
        expansion: dict[Monomial, Fraction] = {(low, ()): c}
        for i, e in m[0]:
            if i <= 1:
                continue
            if (i, e) not in power_cache:
                power_cache[(i, e)] = _shift_powers(i, e)
            factor = power_cache[(i, e)][e]
            nxt: dict[Monomial, Fraction] = {}
            for m1, c1 in expansion.items():
                for m2, c2 in factor.items():
                    mm = mono_mul(m1, m2)
                    if not keep(mm):
                        continue
                    s = nxt.get(mm, Fraction(0)) + c1 * c2
                    if s:
                        nxt[mm] = s
            expansion = nxt
        for mm, cc in expansion.items():
            s = sub_terms.get(mm, Fraction(0)) + cc
            if s:
                sub_terms[mm] = s
            else:
                sub_terms.pop(mm, None)

    # admission: every pure-psi monomial feeding an output must be in F
    def conversions(target_sw, kmin=2):
        # non-decreasing tuples of shifted indices k with sum (k-1) = target
        if target_sw == 0:
            yield ()
            return
        for k in range(kmin, target_sw + 2):
            for rest in conversions(target_sw - (k - 1), k):
                yield (k,) + rest

    sub_admitted = set()
    direct = mixed_generating_series(gmax, nmax, bmax, engine)
    for m in direct.admitted:
        sw = mono_s_weight(m)
        ok = True
        for conv in conversions(sw):
            counts: dict[int, int] = {}
            for k in conv:
                counts[k] = counts.get(k, 0) + 1
            src = dict(m[0])
            for k, extra in counts.items():
                src[k] = src.get(k, 0) + extra
            src_mono = (tuple(sorted(src.items())), ())
            if not F.is_admitted(src_mono):
                ok = False
                break
        if ok:
            sub_admitted.add(m)

    sub = TruncatedSeries(sub_terms, sub_admitted)
    return sub - direct


def kdv_residual(gmax: int, nmax: int,
                 engine: RecursionEngine) -> TruncatedSeries:
    """Residual of dU/dt_1 = U dU/dt_0 + (1/12) d^3U/dt_0^3 for
    U = d^2F/dt_0^2.  The normalization is calibrated on the low-genus
    coefficients; this check is informational and not part of the hard
    acceptance gate."""
    F = mixed_generating_series(gmax, nmax, 0, engine)
    U = F.derivative(0).derivative(0)
    U0 = U.derivative(0)
    lhs = U.derivative(1)
    quad = U.mul(U0, region=lhs.admitted)
    disp = U0.derivative(0).derivative(0).scaled(Fraction(1, 12))
    return lhs - quad - disp
