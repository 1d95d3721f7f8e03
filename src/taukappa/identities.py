"""Residual checks for the vanishing and closed-form correlator identities.

Each check evaluates both sides of one identity with the exact engines and
reports the residual lhs - rhs.  One table maps each identity name of the
workbench's verification grammar (thm7, thm8, prop9, thm10, prop11, thm12,
conj13, string, dilaton) to its check and its parameter grid.
Every split side is one `_split_sum` over signed head pairs: it runs over
ordered pairs of complementary labeled subsets, empty parts allowed, lists
the splits of d once, and gives each split factor the unique genus that
the dimension constraint permits (terms with no such genus vanish).
conj13 is experimental: its reports never gate a verification run.
The generalized string and dilaton checks read pure psi values from the
engine's n-point function and kappa values from the reduction oracle, so
they test the recursion's string/dilaton step instead of restating it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import factorial, prod

from .core import (EMPTY, MultiIndex, double_factorial,
                   enumerate_sub_multiindices, genus_for_dimension,
                   multiindex_binomial, multiindices_up_to_weight,
                   multiset_splits, partitions)
from .recursion import RecursionEngine, inserted_sum

__all__ = [
    "IdentityReport", "check_theorem7", "check_theorem8",
    "check_proposition9", "check_theorem10", "check_proposition11",
    "check_theorem12", "check_conjecture13", "check_string", "check_dilaton",
    "identity_grid", "run_identity", "IDENTITY_NAMES",
]


def _text(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


class IdentityReport:
    def __init__(self, identity: str, params: dict, lhs: Fraction,
                 rhs: Fraction, conjectural: bool = False):
        self.identity = identity
        self.params = params
        self.lhs = lhs
        self.rhs = rhs
        self.conjectural = conjectural
        self.residual = lhs - rhs
        self.status = "holds" if self.residual == 0 else "fails"

    def line(self) -> str:
        return (f"{self.identity} {self.params}: {self.status} "
                f"(residual {self.residual})")

    def payload(self) -> dict:
        payload = {
            "identity": self.identity,
            "params": self.params,
            "lhs": _text(self.lhs),
            "rhs": _text(self.rhs),
            "residual": _text(self.residual),
            "status": self.status,
        }
        if self.conjectural:
            payload["conjectural"] = True
        return payload


class EquationReport(IdentityReport):
    """A generalized string or dilaton report, on params g, d and b: its
    line names the shape and its payload carries the residual alone."""

    def line(self) -> str:
        p = self.params
        return f"{self.identity} g={p['g']} d={p['d']} b={p['b']}: {self.status}"

    def payload(self) -> dict:
        return {"identity": self.identity, "params": self.params,
                "residual": _text(self.residual), "status": self.status}


def _sorted_d(d) -> tuple:
    """The tau exponents d, sorted descending; a negative one is rejected."""
    d = tuple(sorted(d, reverse=True))
    if any(x < 0 for x in d):
        raise ValueError("need d_j >= 0")
    return d


def _double_factorials(d) -> int:
    """prod (2d_j - 1)!!, the factor of d in the closed forms."""
    return prod(double_factorial(2 * x - 1) for x in d)


def _split_sum(eng: RecursionEngine, g: int, d, b: MultiIndex,
               heads) -> Fraction:
    """sum_{L <= b} binom(b, L) sum over (sign, head1, head2) in `heads` of
    sign * sum over splits I|J of <head1 d_I kappa(L)>_{g'}
    <head2 d_J kappa(b-L)>_{g-g'}; a multiset split counts `ways` times,
    once for each labeled split with the same multisets d_I and d_J."""
    splits = list(multiset_splits(d))
    total = Fraction(0)
    for b1, b2 in enumerate_sub_multiindices(b):
        weight = multiindex_binomial(b, b1)
        for sign, head1, head2 in heads:
            for left, right, ways in splits:
                d1 = head1 + left
                gp = genus_for_dimension(sum(d1) + b1.weight, len(d1))
                if gp is None or gp > g:
                    continue
                v1 = eng.value(gp, d1, b1)
                if not v1:
                    continue
                v2 = eng.value(g - gp, head2 + right, b2)
                if v2:
                    total += sign * weight * ways * v1 * v2
    return total


def _unreduced_value(g: int, d, b: MultiIndex,
                     engine: RecursionEngine) -> Fraction:
    """<kappa(b) prod tau_d>_g by routes that never take the recursion's
    string/dilaton step with kappa classes: the n-point function for pure
    psi, and the kappa reduction oracle otherwise (a pure kappa volume when
    d is empty)."""
    return (engine.reduction_oracle(g, d, b) if b
            else engine.npoint.correlator(g, d))


def check_string(g: int, d, b: MultiIndex,
                 engine: RecursionEngine) -> IdentityReport:
    """Generalized string equation on a stable base shape, 2g - 2 + n > 0:
    the inserted sum at s = 0 equals sum_j <kappa(b) prod tau_d, d_j - 1>_g."""
    d = tuple(d)
    read = partial(_unreduced_value, engine=engine)
    rhs = sum((read(g, d[:j] + (d[j] - 1,) + d[j + 1:], b)
               for j in range(len(d)) if d[j]), Fraction(0))
    return EquationReport("string", {"g": g, "d": list(d), "b": str(b)},
                          inserted_sum(read, g, d, b, 0), rhs)


def check_dilaton(g: int, d, b: MultiIndex,
                  engine: RecursionEngine) -> IdentityReport:
    """Generalized dilaton equation on a stable base shape: the inserted
    sum at s = 1 equals (2g - 2 + n) <kappa(b) prod tau_d>_g."""
    d = tuple(d)
    read = partial(_unreduced_value, engine=engine)
    rhs = (2 * g - 2 + len(d)) * read(g, d, b)
    return EquationReport("dilaton", {"g": g, "d": list(d), "b": str(b)},
                          inserted_sum(read, g, d, b, 1), rhs)


def _closed_form(g: int, d, k: int, shift: int) -> tuple[tuple, Fraction]:
    """Sorted d and the right side of thm7 (shift 0) or thm8 (shift 1),
    once (g, d, k) is checked to lie in part 1 or part 2 of the theorem."""
    d = _sorted_d(d)
    n = len(d)
    if k < 2 * g:
        raise ValueError("need k >= 2g")
    if k > 2 * g:
        if 3 * g + n - k - shift < 0:
            raise ValueError(f"no admissible d at g={g}, n={n}, k={k}")
        # off-constraint tuples are allowed: every term of the sum then
        # violates a dimension constraint and the identity reads 0 = 0
        return d, Fraction(0)
    if any(x < 1 for x in d) or sum(x - 1 for x in d) != g - shift:
        raise ValueError("part 2 needs d_j >= 1 and sum(d_j - 1) = g - shift")
    return d, Fraction(factorial(2 * g + n + 1 - 2 * shift),
                       4 ** g * factorial(2 * g + 1) * _double_factorials(d))


def check_theorem7(g: int, d, k: int, engine: RecursionEngine
                   ) -> IdentityReport:
    """Alternating split sum with two tau_0^2 blocks.

    Part 1 (k > 2g, sum d = 3g+n-k): the sum vanishes.  Part 2 (k = 2g,
    d_j >= 1, sum d = g+n): it equals
    (2g+n+1)! / (4^g (2g+1)! prod (2d_j-1)!!).
    """
    d, rhs = _closed_form(g, d, k, 0)
    lhs = _split_sum(engine, g, d, EMPTY, [
        ((-1) ** j, (j, 0, 0), (k - j, 0, 0)) for j in range(k + 1)])
    return IdentityReport("thm7", {"g": g, "d": list(d), "k": k}, lhs, rhs)


def check_theorem8(g: int, d, k: int, engine: RecursionEngine
                   ) -> IdentityReport:
    """Alternating pair sum sum_j (-1)^j <tau_{k-j} tau_j prod tau_d>_g.

    Vanishes for k > 2g with sum d = 3g+n-k-1; at k = 2g with d_j >= 1 and
    sum (d_j - 1) = g-1 it equals (2g+n-1)! / (4^g (2g+1)! prod (2d_j-1)!!).
    """
    d, rhs = _closed_form(g, d, k, 1)
    lhs = Fraction(0)
    for j in range(k + 1):
        lhs += (-1) ** j * engine.value(g, (k - j, j) + d, EMPTY)
    return IdentityReport("thm8", {"g": g, "d": list(d), "k": k}, lhs, rhs)


def _ladder_heads(g: int) -> list:
    """The signed heads of prop9's and prop11's split side: (tau_j tau_0^2,
    tau_{2g-j} tau_0^2) and (tau_j tau_{2g-j} tau_0^2, tau_0^2)."""
    return [((-1) ** j, head1, head2) for j in range(2 * g + 1)
            for head1, head2 in (((j, 0, 0), (2 * g - j, 0, 0)),
                                 ((j, 2 * g - j, 0, 0), (0, 0)))]


def _tau_m_sides(g: int, d: tuple, b: MultiIndex, M: int,
                 engine: RecursionEngine) -> tuple[Fraction, Fraction]:
    """Both sides of the kappa tau_M recursion (Theorem 12) for sorted d,
    with no check of M: the kappa(b) sum over tau_{M+|L|} insertions, and
    the d_j + M - 1 shifts less half the alternating split sum."""
    lhs = inserted_sum(engine.value, g, d, b, M)
    rhs = Fraction(0)
    for j in range(len(d)):
        rhs += engine.value(g, d[:j] + (d[j] + M - 1,) + d[j + 1:], b)
    half = _split_sum(engine, g, d, b, [
        ((-1) ** j, (j,), (M - 2 - j,)) for j in range(M - 1)])
    return lhs, rhs - Fraction(1, 2) * half


def check_proposition9(g: int, d, engine: RecursionEngine
                       ) -> IdentityReport:
    """Split form of the k = 2g pair sum against its three-point collapse."""
    d = _sorted_d(d)
    lhs = _split_sum(engine, g, d, EMPTY, _ladder_heads(g))
    rhs = Fraction(0)
    for j in range(2 * g + 1):
        rhs += (-1) ** j * engine.value(g, (0, j, 2 * g - j) + d, EMPTY)
    rhs *= (2 * g + len(d) + 1)
    return IdentityReport("prop9", {"g": g, "d": list(d)}, lhs, rhs)


def check_theorem10(g: int, d, k: int, engine: RecursionEngine
                    ) -> IdentityReport:
    """Vanishing recursion for one tau_k insertion, k even and k >= 2g."""
    d = _sorted_d(d)
    n = len(d)
    if k % 2 or k < 2 * g or k < 2:
        raise ValueError("k must be a positive even number with k >= 2g")
    if 3 * g + n - k - 2 < 0:
        raise ValueError(f"no admissible d at g={g}, n={n}, k={k}")
    lhs, rhs = _tau_m_sides(g, d, EMPTY, k, engine)
    return IdentityReport("thm10", {"g": g, "d": list(d), "k": k},
                          lhs - rhs, Fraction(0))


def check_proposition11(g: int, d, b: MultiIndex,
                        engine: RecursionEngine) -> IdentityReport:
    """Kappa generalization of the prop9 split identity."""
    d = _sorted_d(d)
    lhs = Fraction(0)
    for j in range(2 * g + 1):
        lhs += (-1) ** j * engine.value(g, (0, 1, j, 2 * g - j) + d, b)
    rhs = _split_sum(engine, g, d, b, _ladder_heads(g))
    return IdentityReport("prop11", {"g": g, "d": list(d), "b": str(b)},
                          lhs, rhs)


def check_theorem12(g: int, d, b: MultiIndex, M: int,
                    engine: RecursionEngine) -> IdentityReport:
    """Kappa generalization of the tau_M vanishing recursion (M even, >= 2g)."""
    d = _sorted_d(d)
    if M % 2 or M < 2 * g or M < 2:
        raise ValueError("M must be a positive even number with M >= 2g")
    lhs, rhs = _tau_m_sides(g, d, b, M, engine)
    return IdentityReport("thm12", {"g": g, "d": list(d), "b": str(b), "M": M},
                          lhs, rhs)


def check_conjecture13(g: int, d, engine: RecursionEngine
                       ) -> IdentityReport:
    """Experimental closed form of the tau_M sum at M = 2g-2, below the
    range of Theorem 10; reported, never asserted."""
    d = _sorted_d(d)
    if g < 2:
        raise ValueError("needs g >= 2")
    if any(x < 1 for x in d) or sum(x - 1 for x in d) != g:
        raise ValueError("needs d_j >= 1 and sum(d_j - 1) = g")
    lhs, rhs = _tau_m_sides(g, d, EMPTY, 2 * g - 2, engine)
    closed = Fraction(factorial(2 * g - 3 + len(d)),
                      2 ** (2 * g + 1) * factorial(2 * g - 3)
                      * _double_factorials(d))
    return IdentityReport("conj13", {"g": g, "d": list(d)}, lhs - rhs, closed,
                          conjectural=True)


# -- parameter grids ---------------------------------------------------------


def _closed_form_grid(shift: int, gmax: int, nmax: int, bs):
    """thm7 (shift 0) and thm8 (shift 1): part 1 for each k > 2g, then
    part 2 at k = 2g, whose d_j >= 1 come from partitions of g - shift."""
    for g in range(gmax + 1):
        for n in range(1, nmax + 1):
            for k in range(2 * g + 1, 3 * g + n + 1 - shift):
                for d in partitions(3 * g + n - k - shift, n):
                    yield {"g": g, "d": d, "k": k}
            for e in partitions(g - shift, n):
                yield {"g": g, "d": tuple(x + 1 for x in e), "k": 2 * g}


def _tau_m_grid(gmax: int, nmax: int, bs):
    """The tau_M recursion's (g, d, b, M): M even, M >= max(2g, 2), and d
    takes the degree 3g+n-2-M-|b| that tau_M and kappa(b) leave."""
    for g in range(gmax + 1):
        for n in range(nmax + 1):
            for b in bs:
                for M in range(max(2 * g, 2), 3 * g + n - 1 - b.weight, 2):
                    for d in partitions(3 * g + n - 2 - M - b.weight, n):
                        yield {"g": g, "d": d, "b": b, "M": M}


def _equation_grid(s: int, gmax: int, nmax: int, bs):
    """Stable base shapes (g, n) and kappa(b); d takes the degree that
    tau_{|L|+s} and kappa(b) leave, and there is none when that is < 0."""
    for g in range(gmax + 1):
        for n in range(nmax + 1):
            if 2 * g - 2 + n <= 0:
                continue
            for b in bs:
                for d in partitions(3 * g - 2 + n - s - b.weight, n):
                    yield {"g": g, "d": d, "b": b}


# name -> (check, grid); a grid takes (gmax, nmax, bs), bs the kappa
# multi-indices up to the weight bound, and yields its check's parameters
_FAMILIES = {
    "thm7": (check_theorem7, partial(_closed_form_grid, 0)),
    "thm8": (check_theorem8, partial(_closed_form_grid, 1)),
    "prop9": (check_proposition9, lambda gmax, nmax, bs: (
        {"g": g, "d": d} for g in range(gmax + 1)
        for n in range(1, nmax + 1) for d in partitions(g + n, n))),
    "thm10": (check_theorem10, lambda gmax, nmax, bs: (
        {"g": p["g"], "d": p["d"], "k": p["M"]}
        for p in _tau_m_grid(gmax, nmax, (EMPTY,)))),
    "prop11": (check_proposition11, lambda gmax, nmax, bs: (
        {"g": g, "d": d, "b": b} for g in range(gmax + 1)
        for n in range(nmax + 1) for b in bs
        for d in partitions(g + n - b.weight, n))),
    "thm12": (check_theorem12, _tau_m_grid),
    "conj13": (check_conjecture13, lambda gmax, nmax, bs: (
        {"g": g, "d": tuple(x + 1 for x in e)} for g in range(2, gmax + 1)
        for n in range(1, nmax + 1) for e in partitions(g, n))),
    "string": (check_string, partial(_equation_grid, 0)),
    "dilaton": (check_dilaton, partial(_equation_grid, 1)),
}

IDENTITY_NAMES = tuple(_FAMILIES)


def identity_grid(name: str, gmax: int, nmax: int, bmax: int = 0):
    """Admissible parameter tuples for one identity over the test grid;
    no admissible kappa(b) weighs more than 3 gmax + nmax."""
    if name not in _FAMILIES:
        raise ValueError(f"unknown identity {name!r}")
    bs = multiindices_up_to_weight(min(bmax, 3 * gmax + nmax))
    return _FAMILIES[name][1](gmax, nmax, bs)


def run_identity(name: str, params: dict,
                 engine: RecursionEngine) -> IdentityReport:
    return _FAMILIES[name][0](**params, engine=engine)
