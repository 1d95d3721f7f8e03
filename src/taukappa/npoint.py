"""Generating-function engines for pure psi-class correlators.

The correlator <tau_{d_1}...tau_{d_n}>_g is the coefficient of
prod x_j^{d_j} in the degree-(3g+n-3) part of the n-point function F.
Two independent expansions of F are implemented:

* the `normalized` route: F = exp(sum x_j^3/24) * G with G assembled from
  homogeneous pieces P_r and Delta = ((sum x)^3 - sum x^3)/3, weighted by
  (2r+n-3)!! / (4^s (2r+2s+n-1)!!);
* the `direct` route: F = exp((sum x)^3/24) * sum of
  (-1)^s P_r Delta^s / (8^s (2r+2s+n-1) s!).

Both agree coefficientwise; the second is used as a cross-check of the
first.  Every product either route forms multiplies by a power of
e1 = sum x or of p3 = sum x^3, or by Delta, one factor at a time as
Delta f = (e1^3 f - p3 f)/3, so all of them go through
`poly.times_power_sum`.  The one- and two-point normalized functions x^-2
and 1/(x+y) are not polynomials, and `component` refuses those two shapes.
They enter only through the certified products (sum_I x)^2 * x^-2 = 1 and
(x+y)^2 * 1/(x+y) = x+y, and the two-point routes through (x+y) P_0 = 1,
which keep every assembled numerator a genuine polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, factorial
from operator import mul

from .core import Memo, bucket_sum, double_factorial, partitions, runs
from .poly import (SymmetricPoly, class_key, divide_by_variable_sum,
                   linear_combination, times_power_sum)

__all__ = ["NPointEngine"]


def _times_delta(f: SymmetricPoly) -> SymmetricPoly:
    """f * Delta with Delta = ((sum x)^3 - sum x^3)/3, as two power-sum
    products; the division by 3 is exact on f's integer form."""
    return linear_combination(f.nvars, f.degree + 3, [
        (times_power_sum(f, 1, 3), Fraction(1, 3)),
        (times_power_sum(f, 3), Fraction(-1, 3))])


class NPointEngine:
    """Caches every normalized component, split factor and F-part by shape.

    Components depend on the variable set only through its size, so all
    caches are keyed by (variable count, genus index) with the variables
    canonically renamed.  Each cache builds a missing value from the
    public methods, so a subclass that overrides one of them is used by
    every value built after it.
    """

    def __init__(self):
        self._component = Memo(self._new_component)   # (n, g)
        self._afactor = Memo(self._new_a_factor)      # (m, r), (sum x)^2 * G_r
        self._p = Memo(self._new_p_poly)              # (n, r), n >= 3
        self._delta_pow = Memo(self._new_delta_power)  # (n, s)
        self._p_delta = Memo(self._new_p_delta)       # (n, r, s), P_r * Delta^s
        self._fpart = Memo(self._new_f_part)          # (route, n, g)

    # -- normalized components -------------------------------------------

    def component(self, n: int, g: int) -> SymmetricPoly:
        """Degree 3g+n-3 homogeneous component of the normalized function.

        Only polynomial components may be requested: (n, g) with
        3g + n - 3 >= 0 and (n, g) not in {(1, 0), (2, 0)}.
        """
        return self._component[n, g]

    def _new_component(self, key) -> SymmetricPoly:
        n, g = key
        if n < 1 or g < 0:
            raise ValueError(f"invalid component ({n}, {g})")
        if n == 1:
            if g == 0:
                raise ValueError("the one-point normalized function is the "
                                 "Laurent atom x^-2, not a polynomial")
            return SymmetricPoly(1, 3 * g - 2)   # identically zero
        if n == 2:
            if g == 0:
                raise ValueError("the two-point normalized function is the "
                                 "Laurent atom 1/(x+y), not a polynomial")
            scale = Fraction(1, 4 ** g * double_factorial(2 * g + 1))
            return linear_combination(2, 3 * g - 1, [
                (divide_by_variable_sum(self.delta_power(2, g)), scale)])
        return linear_combination(n, 3 * g + n - 3, (
            (self.p_delta(n, r, g - r),
             Fraction(double_factorial(2 * r + n - 3),
                      4 ** (g - r) * double_factorial(2 * g + n - 1)))
            for r in range(g + 1)))

    def delta_power(self, n: int, s: int) -> SymmetricPoly:
        return self._delta_pow[n, s]

    def _new_delta_power(self, key) -> SymmetricPoly:
        # one more factor on the cached Delta^(s-1)
        n, s = key
        return (SymmetricPoly(n, 0, {(): Fraction(1)}) if s == 0
                else _times_delta(self.delta_power(n, s - 1)))

    def p_delta(self, n: int, r: int, s: int) -> SymmetricPoly:
        """P_r * Delta^s on n >= 3 variables, formed once for both routes."""
        return self._p_delta[n, r, s]

    def _new_p_delta(self, key) -> SymmetricPoly:
        # one more factor on the cached P_r * Delta^(s-1)
        n, r, s = key
        return (self.p_poly(n, r) if s == 0
                else _times_delta(self.p_delta(n, r, s - 1)))

    def a_factor(self, m: int, r: int) -> SymmetricPoly:
        """(sum_{i<=m} x_i)^2 * G_r(x_1..x_m), a polynomial for every shape.

        The m = 1 and m = 2 genus-0 values are the certified atom products
        1 and x_1 + x_2.
        """
        return self._afactor[m, r]

    def _new_a_factor(self, key) -> SymmetricPoly:
        m, r = key
        if m == 1:      # component(1, r > 0) is the zero polynomial
            return SymmetricPoly(1, 3 * r, {} if r else {(): Fraction(1)})
        if m == 2 and r == 0:
            return SymmetricPoly(2, 1, {(1,): Fraction(1)})
        return times_power_sum(self.component(m, r), 1, 2)

    def p_poly(self, n: int, r: int) -> SymmetricPoly:
        """P_r(x_1..x_n) for n >= 3: split-sum numerator over ordered pairs
        of complementary nonempty subsets, exactly divided by 2*(sum x).

        Keeping position 0 in I visits each unordered pair {I, J} once,
        half the ordered sum, so the numerator built here is divided by
        sum x alone.
        I takes k_v of the c_v entries equal to v from the other positions.
        Its factor has genus r1 = (ev[0] + sum k_v (v - 1)) / 3, which is
        decided from the counts k_v before any split is built.
        Each class sums ways * a_I * a_J as integers in buckets keyed by
        the product of the two denominators.
        """
        return self._p[n, r]

    def _new_p_poly(self, key) -> SymmetricPoly:
        n, r = key
        if n < 3:
            raise ValueError("p_poly handles n >= 3; the two-point P_r are "
                             "the atom (r=0) and zero (r>0)")
        deg_num = 3 * r + n - 2
        num = SymmetricPoly(n, deg_num)
        for ev in partitions(deg_num, n):
            head = ev[0]
            groups = runs(ev[1:])
            drops = [v - 1 for v, _ in groups]
            acc = {}
            # J holds the n - m positions I leaves and is nonempty
            for counts in product(*(range(c + 1) for _, c in groups)):
                m = sum(counts) + 1
                if m == n:
                    continue
                r1, rem = divmod(head + sum(map(mul, counts, drops)), 3)
                if rem or r1 < 0 or r1 > r:
                    continue
                # runs descend, so both keys come out sorted; zeros drop
                part, rest, ways = (head,), (), 1
                for (v, c), k in zip(groups, counts):
                    ways *= comb(c, k)
                    if v:
                        part += (v,) * k
                        rest += (v,) * (c - k)
                a_i = self.a_factor(m, r1).classes.get(part)
                if not a_i:
                    continue
                a_j = self.a_factor(n - m, r - r1).classes.get(rest)
                if a_j:
                    den = a_i.denominator * a_j.denominator
                    acc[den] = (acc.get(den, 0)
                                + ways * a_i.numerator * a_j.numerator)
            tot = bucket_sum(acc)
            if tot:
                num.classes[class_key(ev)] = tot
        return divide_by_variable_sum(num)

    # -- F-parts and correlators -----------------------------------------

    def f_part(self, n: int, g: int, route: str = "normalized") -> SymmetricPoly:
        """Degree 3g+n-3 part of the n-point function F, n >= 2."""
        return self._fpart[route, n, g]

    def _new_f_part(self, key) -> SymmetricPoly:
        route, n, g = key
        if n < 2:
            raise ValueError("f_part requires n >= 2")
        if n == 2 and g == 0:
            raise ValueError("the (0,2) part of F is the Laurent atom")
        return self._route(route)(self, n, g)

    def _f_part_normalized(self, n: int, g: int) -> SymmetricPoly:
        # exp(sum x^3/24) * G, collected in degree 3g+n-3
        if n == 2:
            # work with (x+y)*F-part, using (x+y)*G_m = Delta^m/(4^m (2m+1)!!)
            return divide_by_variable_sum(linear_combination(2, 3 * g, (
                (times_power_sum(self.delta_power(2, g - k), 3, k),
                 Fraction(1, 24 ** k * factorial(k) * 4 ** (g - k)
                          * double_factorial(2 * (g - k) + 1)))
                for k in range(g + 1))))
        return linear_combination(n, 3 * g + n - 3, (
            (times_power_sum(self.component(n, g - k), 3, k),
             Fraction(1, 24 ** k * factorial(k)))
            for k in range(g + 1)))

    def _f_part_direct(self, n: int, g: int) -> SymmetricPoly:
        if n == 2:
            # (x+y)*F-part with (x+y)*P_0 = 1; P_r = 0 for r > 0
            return divide_by_variable_sum(linear_combination(2, 3 * g, (
                (times_power_sum(self.delta_power(2, g - a), 1, 3 * a),
                 Fraction((-1) ** (g - a),
                          24 ** a * factorial(a) * 8 ** (g - a)
                          * (2 * (g - a) + 1) * factorial(g - a)))
                for a in range(g + 1))))
        return linear_combination(n, 3 * g + n - 3, self._direct_terms(n, g))

    def _direct_terms(self, n: int, g: int):
        # (24^a a!)^-1 (sum x)^(3a) * (-1)^s P_r Delta^s / (8^s (2r+2s+n-1) s!)
        for a in range(g + 1):
            for r in range(g - a + 1):
                s = g - a - r
                yield (times_power_sum(self.p_delta(n, r, s), 1, 3 * a),
                       Fraction((-1) ** s, 24 ** a * factorial(a) * 8 ** s
                                * (2 * g - 2 * a + n - 1) * factorial(s)))

    _ROUTES = {"normalized": _f_part_normalized, "direct": _f_part_direct}

    @classmethod
    def _route(cls, route: str):
        try:
            return cls._ROUTES[route]
        except KeyError:
            raise ValueError(f"unknown route {route!r}") from None

    def correlator(self, g: int, d, route: str = "normalized") -> Fraction:
        """<tau_{d_1}...tau_{d_n}>_g, zero off the dimension constraint."""
        self._route(route)
        d = tuple(d)
        n = len(d)
        if n < 1 or g < 0 or any(x < 0 for x in d):
            return Fraction(0)
        if sum(d) != 3 * g - 3 + n:
            return Fraction(0)
        if 2 * g - 2 + n <= 0:
            return Fraction(0)
        if n == 1:
            # coefficient of x^{3g-2} in exp(x^3/24) * x^-2
            return Fraction(1, 24 ** g * factorial(g))
        return self.f_part(n, g, route).get(d)

