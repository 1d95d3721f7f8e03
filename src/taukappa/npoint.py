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
Delta f = (e1^3 f - p3 f)/3, so all of them run `poly.times_power_sum`'s
pass on the integers each `SymmetricPoly` stores over its denominator.
The one- and two-point normalized functions x^-2 and 1/(x+y) are not
polynomials, and `component` refuses those two shapes.
They enter only through the certified products (sum_I x)^2 * x^-2 = 1 and
(x+y)^2 * 1/(x+y) = x+y, and the two-point routes through (x+y) P_0 = 1,
which keep every assembled numerator a genuine polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm

from .core import Memo, double_factorial, runs
from .poly import (SymmetricPoly, _push_power_sum, divide_by_variable_sum,
                   linear_combination, times_power_sum)

__all__ = ["NPointEngine"]


def _times_delta(f: SymmetricPoly) -> SymmetricPoly:
    """f * Delta with Delta = ((sum x)^3 - sum x^3)/3: both power-sum
    products are summed on f's integers, and the division by 3 is exact
    since e1^3 - p3 = 3 (e1 e2 - e3)."""
    ints = acc = f.ints
    for _ in range(3):
        acc = _push_power_sum(acc, f.nvars, 1)
    for k, c in _push_power_sum(ints, f.nvars, 3).items():
        acc[k] = acc.get(k, 0) - c
    if any(c % 3 for c in acc.values()):
        raise ValueError("e1^3 f - p3 f is not divisible by 3")
    return SymmetricPoly.from_ints(f.nvars, f.degree + 3, f.den,
                                   {k: c // 3 for k, c in acc.items()})


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

        I keeps position 0, one copy of the top entry, so each unordered
        pair {I, J} is met once and the numerator is divided by sum x.  Each
        nonzero class p of a_factor(m, r1) meets each nonzero class q of
        a_factor(n - m, r - r1) with top at most p's, adding ways * a_p * a_q
        to ev = sorted(p + q): ways = prod binom(c_v - [v = top], j_v) over
        the runs of q, zeros included, c_v and j_v counting v in ev and q.
        The products are summed as integers, one bucket per denominator.
        """
        return self._p[n, r]

    def _new_p_poly(self, key) -> SymmetricPoly:
        n, r = key
        if n < 3:
            raise ValueError("p_poly handles n >= 3; the two-point P_r are "
                             "the atom (r=0) and zero (r>0)")
        acc = {}    # {den: {ev: int}}
        for m in range(1, n):
            for r1 in range(r + 1):
                # J's entries sum to d_j, none above I's top <= 3 r1 + m - 1
                d_j = 3 * (r - r1) + n - m - 1
                if (n - m) * (3 * r1 + m - 1) < d_j:
                    continue
                f_i = self.a_factor(m, r1)
                if not f_i:
                    continue
                f_j = self.a_factor(n - m, r - r1)
                a_j = [(q, runs(q), c) for q, c in sorted(f_j.ints.items())]
                bucket = acc.setdefault(f_i.den * f_j.den, {})
                for p, c_p in f_i.ints.items():
                    top = p[0]
                    for q, q_runs, c_q in a_j:     # sorted keys: tops ascend
                        if q and q[0] > top:
                            break
                        ev = tuple(sorted(p + q, reverse=True))
                        ways = comb(n - len(ev), m - len(p))
                        for v, j in q_runs:
                            ways *= comb(p.count(v) - (v == top) + j, j)
                        bucket[ev] = bucket.get(ev, 0) + ways * c_p * c_q
        common, num = lcm(*acc), {}
        for den, bucket in acc.items():
            for ev, c in bucket.items():
                num[ev] = num.get(ev, 0) + c * (common // den)
        return divide_by_variable_sum(
            SymmetricPoly.from_ints(n, 3 * r + n - 2, common, num))

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
        # X_0 + e1^3 (X_1 + e1^3 (X_2 + ...)), where X_a = (24^a a!)^-1 *
        # sum_r (-1)^s P_r Delta^s / (8^s (2r+2s+n-1) s!) with s = g-a-r
        acc = None
        for a in range(g, -1, -1):
            terms = [(self.p_delta(n, g - a - s, s),
                      Fraction((-1) ** s, 24 ** a * factorial(a) * 8 ** s
                               * (2 * g - 2 * a + n - 1) * factorial(s)))
                     for s in range(g - a + 1)]
            if acc is not None:
                terms.append((times_power_sum(acc, 1, 3), 1))
            acc = linear_combination(n, 3 * (g - a) + n - 3, terms)
        return acc

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

