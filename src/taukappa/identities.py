"""Residual checks for the vanishing and closed-form correlator identities.

Each check evaluates both sides of one identity with the exact engines and
reports the residual lhs - rhs.  Identity names follow the workbench's
verification grammar (thm7, thm8, prop9, thm10, prop11, thm12, conj13,
string, dilaton).
Split sums run over ordered pairs of complementary labeled subsets, empty
parts allowed, and the genus of each split factor is the unique one
permitted by the dimension constraint (terms with no such genus vanish).
conj13 is experimental: its reports never gate a verification run.
The generalized string and dilaton checks read pure psi values from the
engine's n-point function and kappa values from the reduction oracle, so
they test the recursion's string/dilaton step instead of restating it.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .core import (EMPTY, MultiIndex, double_factorial,
                   enumerate_sub_multiindices, genus_for_dimension,
                   multiindex_binomial, multiindices_up_to_weight,
                   multiset_splits, partitions)
from .recursion import RecursionEngine

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


def _split_pair_value(eng: RecursionEngine, g: int, head1, head2, d,
                      b1: MultiIndex = EMPTY, b2: MultiIndex = EMPTY) -> Fraction:
    """sum over splits I|J of <head1, d_I, kappa(b1)>_{g'} <head2, d_J, kappa(b2)>_{g-g'}.

    Labeled splits with the same multisets d_I and d_J give the same term,
    so each multiset split counts `ways` times.
    """
    total = Fraction(0)
    for left, right, ways in multiset_splits(d):
        d1 = head1 + left
        gp = genus_for_dimension(sum(d1) + b1.weight, len(d1))
        if gp is None or gp > g:
            continue
        v1 = eng.value(gp, d1, b1)
        if not v1:
            continue
        v2 = eng.value(g - gp, head2 + right, b2)
        if v2:
            total += ways * v1 * v2
    return total


def _unreduced_value(g: int, d, b: MultiIndex,
                     engine: RecursionEngine) -> Fraction:
    """<kappa(b) prod tau_d>_g by routes that never take the recursion's
    string/dilaton step with kappa classes: the n-point function for pure
    psi, and the kappa reduction oracle otherwise (a pure kappa volume when
    d is empty)."""
    return (engine.reduction_oracle(g, d, b) if b
            else engine.npoint.correlator(g, d))


def _inserted_sum(g: int, d: tuple, b: MultiIndex, s: int,
                  engine: RecursionEngine) -> Fraction:
    """sum_{L <= b} (-1)^||L|| binom(b, L) <tau_{|L|+s} kappa(b-L) prod tau_d>_g,
    the side of the string (s = 0) or dilaton (s = 1) equation that
    carries the new insertion."""
    total = Fraction(0)
    for left, right in enumerate_sub_multiindices(b):
        total += ((-1) ** left.size * multiindex_binomial(b, left)
                  * _unreduced_value(g, d + (left.weight + s,), right, engine))
    return total


def check_string(g: int, d, b: MultiIndex,
                 engine: RecursionEngine) -> IdentityReport:
    """Generalized string equation on a stable base shape, 2g - 2 + n > 0:
    the inserted sum at s = 0 equals sum_j <kappa(b) prod tau_d, d_j - 1>_g."""
    d = tuple(d)
    rhs = sum((_unreduced_value(g, d[:j] + (d[j] - 1,) + d[j + 1:], b, engine)
               for j in range(len(d)) if d[j]), Fraction(0))
    return EquationReport("string", {"g": g, "d": list(d), "b": str(b)},
                          _inserted_sum(g, d, b, 0, engine), rhs)


def check_dilaton(g: int, d, b: MultiIndex,
                  engine: RecursionEngine) -> IdentityReport:
    """Generalized dilaton equation on a stable base shape: the inserted
    sum at s = 1 equals (2g - 2 + n) <kappa(b) prod tau_d>_g."""
    d = tuple(d)
    rhs = (2 * g - 2 + len(d)) * _unreduced_value(g, d, b, engine)
    return EquationReport("dilaton", {"g": g, "d": list(d), "b": str(b)},
                          _inserted_sum(g, d, b, 1, engine), rhs)


def check_theorem7(g: int, d, k: int, engine: RecursionEngine
                   ) -> IdentityReport:
    """Alternating split sum with two tau_0^2 blocks.

    Part 1 (k > 2g, sum d = 3g+n-k): the sum vanishes.  Part 2 (k = 2g,
    d_j >= 1, sum d = g+n): it equals
    (2g+n+1)! / (4^g (2g+1)! prod (2d_j-1)!!).
    """
    d = tuple(sorted(d, reverse=True))
    n = len(d)
    if any(x < 0 for x in d) or k < 2 * g:
        raise ValueError("need d_j >= 0 and k >= 2g")
    if k > 2 * g:
        if 3 * g + n - k < 0:
            raise ValueError(f"no admissible d at g={g}, n={n}, k={k}")
        # off-constraint tuples are allowed: every term of the sum then
        # violates a dimension constraint and the identity reads 0 = 0
        rhs = Fraction(0)
    else:
        if any(x < 1 for x in d) or sum(d) != g + n:
            raise ValueError("part 2 needs d_j >= 1 and sum(d) = g+n")
        denom = 4 ** g * factorial(2 * g + 1)
        for x in d:
            denom *= double_factorial(2 * x - 1)
        rhs = Fraction(factorial(2 * g + n + 1), denom)
    lhs = Fraction(0)
    for j in range(k + 1):
        lhs += (-1) ** j * _split_pair_value(
            engine, g, (j, 0, 0), (k - j, 0, 0), d)
    return IdentityReport("thm7", {"g": g, "d": list(d), "k": k}, lhs, rhs)


def check_theorem8(g: int, d, k: int, engine: RecursionEngine
                   ) -> IdentityReport:
    """Alternating pair sum sum_j (-1)^j <tau_{k-j} tau_j prod tau_d>_g.

    Vanishes for k > 2g with sum d = 3g+n-k-1; at k = 2g with d_j >= 1 and
    sum (d_j - 1) = g-1 it equals (2g+n-1)! / (4^g (2g+1)! prod (2d_j-1)!!).
    """
    d = tuple(sorted(d, reverse=True))
    n = len(d)
    if any(x < 0 for x in d) or k < 2 * g:
        raise ValueError("need d_j >= 0 and k >= 2g")
    if k > 2 * g:
        if 3 * g + n - k - 1 < 0:
            raise ValueError(f"no admissible d at g={g}, n={n}, k={k}")
        rhs = Fraction(0)
    else:
        if any(x < 1 for x in d) or sum(x - 1 for x in d) != g - 1:
            raise ValueError("part 2 needs d_j >= 1 and sum(d_j - 1) = g-1")
        denom = 4 ** g * factorial(2 * g + 1)
        for x in d:
            denom *= double_factorial(2 * x - 1)
        rhs = Fraction(factorial(2 * g + n - 1), denom)
    lhs = Fraction(0)
    for j in range(k + 1):
        lhs += (-1) ** j * engine.value(g, (k - j, j) + d, EMPTY)
    return IdentityReport("thm8", {"g": g, "d": list(d), "k": k}, lhs, rhs)


def _split_ladder(eng: RecursionEngine, g: int, d, b1: MultiIndex = EMPTY,
                  b2: MultiIndex = EMPTY) -> Fraction:
    """sum_j (-1)^j of the k = 2g split sums with heads (tau_j tau_0^2,
    tau_{2g-j} tau_0^2) and (tau_j tau_{2g-j} tau_0^2, tau_0^2), the two
    factors carrying kappa(b1) and kappa(b2)."""
    total = Fraction(0)
    for j in range(2 * g + 1):
        total += (-1) ** j * (
            _split_pair_value(eng, g, (j, 0, 0), (2 * g - j, 0, 0), d, b1, b2)
            + _split_pair_value(eng, g, (j, 2 * g - j, 0, 0), (0, 0), d,
                                b1, b2))
    return total


def _tau_m_sides(g: int, d: tuple, b: MultiIndex, M: int,
                 engine: RecursionEngine) -> tuple[Fraction, Fraction]:
    """Both sides of the kappa tau_M recursion (Theorem 12) for sorted d,
    with no check of M: the kappa(b) sum over tau_{M+|L|} insertions, and
    the d_j + M - 1 shifts less half the alternating split sum."""
    lhs = Fraction(0)
    for left, right in enumerate_sub_multiindices(b):
        lhs += ((-1) ** left.size * multiindex_binomial(b, left)
                * engine.value(g, d + (left.weight + M,), right))
    rhs = Fraction(0)
    for j in range(len(d)):
        rhs += engine.value(g, d[:j] + (d[j] + M - 1,) + d[j + 1:], b)
    half = Fraction(0)
    for left, right in enumerate_sub_multiindices(b):
        bin_l = multiindex_binomial(b, left)
        for j in range(M - 1):
            half += ((-1) ** j * bin_l
                     * _split_pair_value(engine, g, (j,), (M - 2 - j,), d,
                                         left, right))
    return lhs, rhs - Fraction(1, 2) * half


def check_proposition9(g: int, d, engine: RecursionEngine
                       ) -> IdentityReport:
    """Split form of the k = 2g pair sum against its three-point collapse."""
    d = tuple(sorted(d, reverse=True))
    n = len(d)
    if any(x < 0 for x in d):
        raise ValueError("needs d_j >= 0")
    lhs = _split_ladder(engine, g, d)
    rhs = Fraction(0)
    for j in range(2 * g + 1):
        rhs += (-1) ** j * engine.value(g, (0, j, 2 * g - j) + d, EMPTY)
    rhs *= (2 * g + n + 1)
    return IdentityReport("prop9", {"g": g, "d": list(d)}, lhs, rhs)


def check_theorem10(g: int, d, k: int, engine: RecursionEngine
                    ) -> IdentityReport:
    """Vanishing recursion for one tau_k insertion, k even and k >= 2g."""
    d = tuple(sorted(d, reverse=True))
    n = len(d)
    if k % 2 or k < 2 * g or k < 2:
        raise ValueError("k must be a positive even number with k >= 2g")
    if any(x < 0 for x in d):
        raise ValueError("need d_j >= 0")
    if 3 * g + n - k - 2 < 0:
        raise ValueError(f"no admissible d at g={g}, n={n}, k={k}")
    lhs, rhs = _tau_m_sides(g, d, EMPTY, k, engine)
    return IdentityReport("thm10", {"g": g, "d": list(d), "k": k},
                          lhs - rhs, Fraction(0))


def check_proposition11(g: int, d, b: MultiIndex,
                        engine: RecursionEngine) -> IdentityReport:
    """Kappa generalization of the prop9 split identity."""
    d = tuple(sorted(d, reverse=True))
    if any(x < 0 for x in d):
        raise ValueError("need d_j >= 0")
    lhs = Fraction(0)
    for j in range(2 * g + 1):
        lhs += (-1) ** j * engine.value(g, (0, 1, j, 2 * g - j) + d, b)
    rhs = Fraction(0)
    for left, right in enumerate_sub_multiindices(b):
        rhs += (multiindex_binomial(b, left)
                * _split_ladder(engine, g, d, left, right))
    return IdentityReport("prop11", {"g": g, "d": list(d), "b": str(b)},
                          lhs, rhs)


def check_theorem12(g: int, d, b: MultiIndex, M: int,
                    engine: RecursionEngine) -> IdentityReport:
    """Kappa generalization of the tau_M vanishing recursion (M even, >= 2g)."""
    d = tuple(sorted(d, reverse=True))
    if M % 2 or M < 2 * g or M < 2:
        raise ValueError("M must be a positive even number with M >= 2g")
    if any(x < 0 for x in d):
        raise ValueError("need d_j >= 0")
    lhs, rhs = _tau_m_sides(g, d, b, M, engine)
    return IdentityReport("thm12", {"g": g, "d": list(d), "b": str(b), "M": M},
                          lhs, rhs)


def check_conjecture13(g: int, d, engine: RecursionEngine
                       ) -> IdentityReport:
    """Experimental closed form of the tau_M sum at M = 2g-2, below the
    range of Theorem 10; reported, never asserted."""
    d = tuple(sorted(d, reverse=True))
    if g < 2:
        raise ValueError("needs g >= 2")
    if any(x < 1 for x in d) or sum(x - 1 for x in d) != g:
        raise ValueError("needs d_j >= 1 and sum(d_j - 1) = g")
    lhs, rhs = _tau_m_sides(g, d, EMPTY, 2 * g - 2, engine)
    denom = 2 ** (2 * g + 1) * factorial(2 * g - 3)
    for x in d:
        denom *= double_factorial(2 * x - 1)
    closed = Fraction(factorial(2 * g - 3 + len(d)), denom)
    return IdentityReport("conj13", {"g": g, "d": list(d)}, lhs - rhs, closed,
                          conjectural=True)


# -- parameter grids ---------------------------------------------------------

# each grid's keys are its check's parameter names
_CHECKS = {
    "thm7": check_theorem7, "thm8": check_theorem8,
    "prop9": check_proposition9, "thm10": check_theorem10,
    "prop11": check_proposition11, "thm12": check_theorem12,
    "conj13": check_conjecture13, "string": check_string,
    "dilaton": check_dilaton,
}

IDENTITY_NAMES = tuple(_CHECKS)


def identity_grid(name: str, gmax: int, nmax: int, bmax: int = 0):
    """Admissible parameter tuples for one identity over the test grid."""
    if name == "thm7":
        for g in range(gmax + 1):
            for n in range(1, nmax + 1):
                for k in range(2 * g + 1, 3 * g + n + 1):
                    for d in partitions(3 * g + n - k, n):
                        yield {"g": g, "d": d, "k": k}
                for e in partitions(g, n):   # part 2: d_j >= 1
                    yield {"g": g, "d": tuple(x + 1 for x in e), "k": 2 * g}
    elif name == "thm8":
        for g in range(gmax + 1):
            for n in range(1, nmax + 1):
                for k in range(2 * g + 1, 3 * g + n):
                    for d in partitions(3 * g + n - k - 1, n):
                        yield {"g": g, "d": d, "k": k}
                if g >= 1:
                    for e in partitions(g - 1, n):
                        yield {"g": g, "d": tuple(x + 1 for x in e), "k": 2 * g}
    elif name == "prop9":
        for g in range(gmax + 1):
            for n in range(1, nmax + 1):
                for d in partitions(g + n, n):
                    yield {"g": g, "d": d}
    elif name == "thm10":
        for g in range(gmax + 1):
            for n in range(nmax + 1):
                for k in range(max(2 * g, 2), 3 * g + n - 1, 2):
                    for d in partitions(3 * g + n - k - 2, n):
                        yield {"g": g, "d": d, "k": k}
    elif name == "prop11":
        for g in range(gmax + 1):
            for n in range(nmax + 1):
                for b in multiindices_up_to_weight(bmax):
                    budget = g + n - 1 - b.weight
                    if budget < 0:
                        continue
                    for d in partitions(budget, n):
                        yield {"g": g, "d": d, "b": b}
    elif name == "thm12":
        for g in range(gmax + 1):
            for n in range(nmax + 1):
                for b in multiindices_up_to_weight(bmax):
                    for M in range(max(2 * g, 2), 3 * g + n - 1 - b.weight, 2):
                        budget = 3 * g + n - 2 - M - b.weight
                        if budget < 0:
                            continue
                        for d in partitions(budget, n):
                            yield {"g": g, "d": d, "b": b, "M": M}
    elif name == "conj13":
        for g in range(2, gmax + 1):
            for n in range(1, nmax + 1):
                for e in partitions(g, n):
                    yield {"g": g, "d": tuple(x + 1 for x in e)}
    elif name == "string":
        yield from _equation_grid(gmax, nmax, bmax, 0)
    elif name == "dilaton":
        yield from _equation_grid(gmax, nmax, bmax, 1)
    else:
        raise ValueError(f"unknown identity {name!r}")


def _equation_grid(gmax: int, nmax: int, bmax: int, s: int):
    """Stable base shapes (g, n) and kappa(b); d takes the degree that
    tau_{|L|+s} and kappa(b) leave, and there is none when that is < 0."""
    for g in range(gmax + 1):
        for n in range(nmax + 1):
            if 2 * g - 2 + n <= 0:
                continue
            for b in multiindices_up_to_weight(bmax):
                for d in partitions(3 * g - 2 + n - s - b.weight, n):
                    yield {"g": g, "d": d, "b": b}


def run_identity(name: str, params: dict,
                 engine: RecursionEngine) -> IdentityReport:
    return _CHECKS[name](**params, engine=engine)
