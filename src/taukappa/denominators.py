"""Denominator invariants of intersection numbers.

D(g, n) is the lcm of the reduced denominators of every pure-psi
correlator on the genus-g n-point moduli space; script-D(g) is the same
over all pure-kappa volumes of weight 3g-3 on the unmarked space.  The
two are tied by divisibility (D(g, n) divides D(g, n+1), Prop. 17) and
by script-D(g) = D(g, 3g-3), which the analyzer recomputes from both
definitions (the latter over the core correlators, every d_j >= 2) and
refuses to report unless they agree.
"""

from __future__ import annotations

from math import factorial, lcm, prod

from .core import multiindices_of_weight, partitions, runs
from .recursion import EngineDisagreement, RecursionEngine

__all__ = [
    "DenominatorReport", "compute_D", "compute_script_D",
    "check_proposition17", "check_lemma20", "check_iz_fixture",
    "factorize", "load_fixture_orders", "iz_closed_form",
]


class DenominatorReport:
    def __init__(self, genus: int, point_count: int | None, value: int,
                 correlator_count: int, factorization: dict):
        self.genus = genus
        # None marks the pure-kappa invariant
        self.point_count = point_count
        self.value = value
        self.correlator_count = correlator_count
        self.factorization = factorization

    def payload(self) -> dict:
        return {
            "genus": self.genus,
            "n": self.point_count,
            "value": str(self.value),
            "correlators": self.correlator_count,
            "factorization": {str(p): e for p, e in self.factorization.items()},
        }


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (denominators are smooth)."""
    if n < 1:
        raise ValueError("factorize needs a positive integer")
    primes = []     # with multiplicity, ascending
    p = 2
    while p * p <= n:
        while n % p == 0:
            primes.append(p)
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        primes.append(n)
    return dict(runs(primes))


def compute_D(g: int, n: int, engine: RecursionEngine) -> DenominatorReport:
    """lcm of denominators over all <prod tau_d>_g with sum d = 3g-3+n."""
    if g < 0 or n < 1 or 2 * g - 2 + n <= 0:
        raise ValueError(f"({g}, {n}) is not a stable shape")
    dim = 3 * g - 3 + n
    value = 1
    count = 0
    for d in partitions(dim, n):
        val = engine.value(g, d)
        count += 1
        value = lcm(value, val.denominator)
    return DenominatorReport(g, n, value, count, factorize(value))


def _core_shapes(g: int) -> list[tuple]:
    """Core d (every d_j >= 2): the partitions of 3g-3, parts raised by 1."""
    return [tuple(x + 1 for x in p if x)
            for p in partitions(3 * g - 3, 3 * g - 3)]


def compute_script_D(g: int, engine: RecursionEngine) -> DenominatorReport:
    """Pure-kappa denominator lcm at genus g >= 2, computed twice.

    The kappa side is the definition, the lcm over the volumes <kappa(b)>_g.
    The psi side is D(g, 3g-3), read from the p(3g-3) core correlators: by
    the integer string and dilaton equations every correlator at (g, n) is
    an integer combination of core ones at (g, n' <= n), and Prop. 17's
    ladder D(g, n') | D(g, n) gives the converse.  A mismatch (a false
    theory, an engine bug or a bad cache record) raises EngineDisagreement.
    """
    if g < 2:
        raise ValueError("script-D needs g >= 2")
    value = 1
    count = 0
    for b in multiindices_of_weight(3 * g - 3):
        val = engine.value(g, (), b)
        count += 1
        value = lcm(value, val.denominator)
    shapes = _core_shapes(g)
    psi_side = lcm(*(engine.value(g, d).denominator for d in shapes))
    if psi_side != value:
        raise EngineDisagreement(
            f"script-D({g}) mismatch: kappa path {value}, "
            f"psi path {psi_side}")
    return DenominatorReport(g, None, value, count + len(shapes),
                             factorize(value))


def check_proposition17(g: int, nmax: int, engine: RecursionEngine):
    """Divisibility ladder D(g, n) | D(g, n+1) up to nmax, plus
    D(g, n) | script-D(g) at g = 2 and 3.

    Returns a list of (description, verdict) pairs, all expected True.
    """
    nmin = 3 if g == 0 else 1
    if nmax < nmin:
        raise ValueError(f"need nmax >= {nmin} at genus {g}")
    values = {n: compute_D(g, n, engine).value for n in range(nmin, nmax + 1)}
    verdicts = []
    for n in range(nmin, nmax):
        verdicts.append((f"D({g},{n}) | D({g},{n+1})",
                         values[n + 1] % values[n] == 0))
    if 2 <= g <= 3:
        script = compute_script_D(g, engine).value
        for n in sorted(values):
            if n <= 3 * g - 3:
                verdicts.append((f"D({g},{n}) | script-D({g})",
                                 script % values[n] == 0))
    return verdicts


def check_lemma20(g: int, engine: RecursionEngine):
    """For every prime p <= g+1, the order of p in D(g, 3) is at least 2.

    Returns (p, order, verdict) triples.
    """
    if g < 2:
        raise ValueError("needs g >= 2")
    value = compute_D(g, 3, engine).value
    fac = factorize(value)
    out = []
    for p in _primes_up_to(g + 1):
        order = fac.get(p, 0)
        out.append((p, order, order >= 2))
    return out


def _primes_up_to(n: int):
    sieve = [True] * (n + 1)
    ps = []
    for p in range(2, n + 1):
        if sieve[p]:
            ps.append(p)
            for q in range(p * p, n + 1, p):
                sieve[q] = False
    return ps


def iz_closed_form(g: int) -> int:
    """IZ(g) = lcm(24^g g!, prod over primes p <= 2g+1 of p^floor(2g/(p-1))),
    the closed form that every computed script-D(g) has matched so far
    (g = 2..12, an observed fit, not a theorem of this package).  Reads no
    engine."""
    if g < 0:
        raise ValueError(f"IZ(g) needs g >= 0, got {g}")
    return lcm(24 ** g * factorial(g),
               prod(p ** (2 * g // (p - 1)) for p in _primes_up_to(2 * g + 1)))


def check_iz_fixture(orders, value: int):
    """Partial divisibility check of curve-automorphism orders.

    `orders` are externally supplied group orders of curves of genus
    1 < g' <= g (fixture data, not computed truth); each must divide
    `value`, the invariant script-D(g).  Returns (order, verdict) pairs.
    """
    return [(o, value % o == 0) for o in orders]


def load_fixture_orders(path: str):
    """Fixture rows `order genus comment...`; returns (order, genus, comment)."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 2)
            if len(parts) < 2:
                raise ValueError(f"fixture row needs an order and a genus: "
                                 f"{line!r}")
            order = int(parts[0])
            if order < 1:
                raise ValueError(f"fixture order must be at least 1: "
                                 f"{line!r}")
            rows.append((order, int(parts[1]),
                         parts[2] if len(parts) > 2 else ""))
    return rows
