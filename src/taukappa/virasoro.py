"""Virasoro operators on the mixed generating function, and the change of
variables tying kappa volumes to the pure-psi series.

The generating function G(s, t) sums every mixed correlator weighted by
s^m/m! prod t_i^{n_i}/n_i!.  The operators V_k (k >= -1) annihilate
exp(G) and close under [V_n, V_m] = (n - m) V_{n+m}; both statements are
checked coefficientwise at a chosen truncation.  The k = 0 constant term
is 1/16: that value is forced both by the empty-monomial coefficient of
V_0 exp(G) (through <tau_1>_1 = 1/24) and by [V_1, V_-1] = 2 V_0.

The substitution check compares G, built directly from the mixed
recursion, coefficientwise against F(t_0, t_1, t_2 + p_2, t_3 + p_3, ...)
with p_k = sum_{|L| = k-1} (-1)^(||L||-1) s^L / L!.  Each coefficient of
the substituted series is pulled from the F coefficients that feed it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import comb, prod

from .core import (Memo, MultiIndex, bucket_sum, double_factorial,
                   enumerate_sub_multiindices, exponent_factorial,
                   genus_for_dimension, merge_exponents,
                   multiindices_of_weight, multiindices_up_to_weight)
from .recursion import RecursionEngine, gamma_constant
from .series import (EMPTY_MONO, Monomial, PackedSeries, TruncatedSeries,
                     format_monomial)

__all__ = [
    "VirasoroOperator", "mixed_generating_series",
    "build_partition_function", "virasoro_residual_report",
    "commutator_check", "p_polynomial", "substitution_check", "kdv_residual",
]

V0_CONSTANT = Fraction(1, 16)


class VirasoroOperator:
    """V_k as a symbolic operator acting on truncated series.

    Term groups: (a) -1/2 (2(|L|+k)+3)!! gamma_L s^L d/dt_{|L|+k+1};
    (b) 1/2 (2(j+k)+1)!!/(2j-1)!! t_j d/dt_{j+k}; (c) for k >= 1,
    1/4 (2d1+1)!!(2d2+1)!! d^2/dt_{d1}dt_{d2} over d1+d2 = k-1;
    (d) the constants t_0^2/4 at k = -1 and 1/16 at k = 0.
    """

    def __init__(self, k: int):
        if k < -1:
            raise ValueError("Virasoro index starts at -1")
        self.k = k
        self._pairs = [((d1, k - 1 - d1),     # group (c): ((d1, d2), coef)
                        Fraction(double_factorial(2 * d1 + 1)
                                 * double_factorial(2 * k - 2 * d1 - 1), 4))
                       for d1 in range(max(k, 0))]

    def _images(self, m: Monomial):
        """Every output monomial that some term of V_k maps m onto."""
        k = self.k
        t, s = m
        for i, _e in t:
            lowered = merge_exponents(t, ((i, -1),))
            if i > k:
                for L in multiindices_of_weight(i - k - 1):
                    yield lowered, merge_exponents(s, L.entries)
            if i >= k:
                yield merge_exponents(lowered, ((i - k, 1),)), s
        texp = dict(t)
        for (d1, d2), _ in self._pairs:
            if texp.get(d1, 0) * (texp.get(d2, 0) - (d1 == d2)) > 0:
                yield merge_exponents(t, ((d1, -1), (d2, -1))), s
        if k == -1:
            yield merge_exponents(t, ((0, 2),)), s
        if k == 0:
            yield m

    def _rules(self, code: PackedSeries):
        """Each term of V_k on the coding `code`: the delta from an output
        to its input, the offset of the field that gives the multiplicity,
        and the coefficient.  Group (a) is listed by the output's s-part."""
        k, w, unit = self.k, code.width, code.unit
        lowered = Memo(lambda s: [      # (a), i = |L| + k + 1
            (unit(L.weight + k + 1) - code.pack(((), L.entries)),
             (L.weight + k + 1) * w, gamma_constant(L)
             * Fraction(-double_factorial(2 * (L.weight + k) + 3), 2))
            for L, _ in enumerate_sub_multiindices(MultiIndex(s))])
        shifts = [j + k >= 0 and (      # (b), by j
            j * w, unit(j + k) - unit(j), (j + k) * w,
            Fraction(double_factorial(2 * (j + k) + 1),
                     2 * double_factorial(2 * j - 1)))
            for j in range(code.tmax + 1)]
        pairs = [(unit(d1) + unit(d2), d1 * w, d2 * w, d1 == d2, coef)
                 for (d1, d2), coef in self._pairs]         # (c)
        return k, code.mask, lowered, shifts, pairs

    def _sources(self, rules, p: int, t, s):
        """(input, multiplicity, coefficient) for every term of V_k that
        maps an input onto the output p, adding multiplicity * coefficient
        times the input's coefficient to p's: the one place V_k's rules
        live.  p and the inputs are ints of the coding of `rules`; t holds
        p's t-indices (maybe more, at exponent 0), s its s-part.  An input
        past the coding is below 0 (`PackedSeries.unit`)."""
        k, mask, lowered, shifts, pairs = rules
        for delta, off, coef in lowered[s]:
            # (a): s^L d/dt_i maps m t_i / s^L onto m
            src = p + delta
            yield src, src >> off & mask, coef
        for j, _ in t:
            # (b): t_j d/dt_{j+k} maps m t_{j+k} / t_j onto m, for j + k >= 0
            rule = shifts[j]
            if rule and p >> rule[0] & mask:
                _, delta, off, coef = rule
                src = p + delta
                yield src, src >> off & mask, coef
        for delta, off1, off2, same, coef in pairs:
            # (c): d^2/dt_{d1}dt_{d2} maps m t_{d1} t_{d2} onto m
            src = p + delta
            yield src, (src >> off1 & mask) * ((src >> off2 & mask) - same), coef
        if k == -1 and p & mask >= 2:   # (d): the constants; t_0 is lowest
            yield p - 2, 1, Fraction(1, 4)
        if k == 0:
            yield p, 1, V0_CONSTANT

    def apply(self, series: TruncatedSeries) -> TruncatedSeries:
        """V_k applied to a series, each output's coefficient pulled from
        its `_sources` on the series' integer coding (`series.packed`): an
        input is the output's int plus a delta, found by one dict probe.
        The candidates are the quotients m / t_{k+1} of a truncated
        series' admitted m, or the `_images` of an exact series' terms,
        which its coding then also covers.  An output is admitted when all
        its sources are, and m t_{k+1} is one (group (a), L = 0); an input
        with a t-index past the coding is neither stored nor admitted.
        Each admitted output sums its stored sources on integers, as
        numerators under their denominators, into one Fraction."""
        k, exact = self.k, series.admitted is None
        if exact:
            outs = {out for m in series.terms for out in self._images(m)}
            code = PackedSeries(series.terms, None, outs)
            candidates = [(code.pack(out), out) for out in outs]
        else:
            code = series.packed
            up, off = code.unit(k + 1), (k + 1) * code.width
            candidates = ([(p - up, m) for p, m in code.monomials.items()
                           if p >> off & code.mask]
                          if k + 1 <= code.tmax else [])
        rules, coded, monomials = self._rules(code), code.coded, code.monomials
        terms, adm = {}, []
        for p, m in candidates:
            acc: dict[int, int] = {}    # denominator -> integer numerator
            for src, mult, coef in self._sources(rules, p, *m):
                c = coded.get(src)
                if c is None:   # not admitted, or an exact series' zero
                    if exact:
                        continue
                    break
                if c:
                    den = c[1] * coef.denominator
                    acc[den] = acc.get(den, 0) + c[0] * mult * coef.numerator
            else:
                out = (monomials.get(p)
                       or (merge_exponents(m[0], ((k + 1, -1),)), m[1]))
                adm.append(out)
                if acc:     # construction drops the zeros anyway
                    terms[out] = bucket_sum(acc)
        return TruncatedSeries(terms, None if exact else adm)


# -- generating series -------------------------------------------------------


def mixed_generating_series(gmax: int, nmax: int, bmax: int,
                            engine: RecursionEngine) -> TruncatedSeries:
    """G(s, t) truncated to n <= nmax insertions, kappa weight <= bmax,
    t-indices <= 3 gmax - 3 + nmax and genus <= gmax; every monomial in the
    cap region whose coefficient those bounds determine is admitted
    (including the known zeros)."""
    tmax = max(3 * gmax - 3 + nmax, 0)
    sparts = multiindices_up_to_weight(bmax)
    terms: dict[Monomial, Fraction] = {}
    admitted = set()
    level = [((), (), 0)]   # (t-part, descending d, degree) of n indices
    for n in range(nmax + 1):
        if n:
            level = [(merge_exponents(tpart, ((i, 1),)), (i,) + d, degree + i)
                     for tpart, d, degree in level
                     for i in range(d[0] if d else 0, tmax + 1)]
        for tpart, d, degree in level:
            for b in sparts:
                m = (tpart, b.entries)
                g = genus_for_dimension(degree + b.weight, n)
                stable = g is not None and 2 * g - 2 + n > 0
                if stable and g > gmax:
                    continue    # computable, but outside the requested bounds
                admitted.add(m)
                if not stable:
                    continue    # a known zero
                val = engine.value(g, d, b)
                if val:
                    terms[m] = val / exponent_factorial(*m)
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


def substitution_check(gmax: int, nmax: int, bmax: int,
                       engine: RecursionEngine) -> TruncatedSeries:
    """Residual of G(s, t) = F(t_0, t_1, t_2 + p_2, t_3 + p_3, ...).

    Each admitted monomial t^a s^L of G is reached from the F monomials
    t^(a + c), one for each conversion c of weight |L| that trades
    t_{j+1}^(c_j) for p_{j+1}^(c_j).  Its coefficient is admitted when
    every such source is admitted in F, and is then the sum over c of
    F[t^(a + c)] prod_j C(a_{j+1} + c_j, c_j) [s^L] prod_j p_{j+1}^(c_j).
    F is built with n <= nmax + bmax insertions so that every source is
    available."""
    F = mixed_generating_series(gmax, nmax + bmax, 0, engine)
    direct = mixed_generating_series(gmax, nmax, bmax, engine)
    weight_parts = Memo(multiindices_of_weight)
    # c -> the exact product prod_j p_{j+1}^(c_j)
    shifts = Memo(lambda c: reduce(TruncatedSeries.mul, [
        TruncatedSeries({((), L.entries): v
                         for L, v in p_polynomial(j + 1).items()})
        for j, e in c.entries for _ in range(e)],
        TruncatedSeries({EMPTY_MONO: 1})))
    terms: dict[Monomial, Fraction] = {}
    admitted = set()
    for m in direct.admitted:
        a, L = m
        texp = dict(a)
        acc = 0
        for c in weight_parts[MultiIndex(L).weight]:
            src = (merge_exponents(a, tuple((j + 1, e) for j, e in c.entries)), ())
            if not F.is_admitted(src):
                break
            if src in F.terms:
                acc += (F.terms[src] * shifts[c].coefficient(((), L))
                        * prod(comb(texp.get(j + 1, 0) + e, e)
                               for j, e in c.entries))
        else:
            admitted.add(m)
            terms[m] = acc
    return TruncatedSeries(terms, admitted) - direct


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
