"""Command-line driver: compute correlators, verify identities, analyze
denominators.  Exact rationals print as `num/den`; exit codes separate
usage errors (2), engine disagreement (1), a falsified proven identity (3)
and a cache file that is unreadable, cannot be opened or cannot be
written (4) so scripts can tell them apart; a loaded record whose value
is malformed when first read, even in a segment whose checksum matches,
makes its file unreadable.  A malformed `--d`, `--b` or `--k` value, a
negative `--d` entry, an empty `--k` range, a negative grid bound or
`--genus`, `--n` or `--workers` below 1, and a `denom` run that names two
invariants or none (it computes exactly one of `--n`, `--script-d`,
`--lemma20`, `--prop17` and `--iz-fixture`) are rejected by the argument
parser, an unreadable or malformed `--iz-fixture` file and a check with
no rows (a `--prop17` ladder of one D(g, n), or an `--iz-fixture` file
with no row of genus 1 < g' <= `--genus`) by `denom`, a grid or a `--k`
that checks nothing (one index for `verify commutators`) by `verify`, and
`--b` on `compute psi` by `compute`: all are usage errors, one line on
stderr.  So is an input whose evaluation nests deeper than Python's
recursion limit (some 600 insertions); nothing is printed on stdout or
appended to the cache.

Every command handler prints nothing: it returns its results and an
optional `#` footer line.  `main` prints each result in the `--format`
encoding, then the footer in plain text, and exits 3 when a result
falsifies a proven statement.  An engine disagreement or usage error
raised mid-run therefore leaves stdout empty.

One invocation has one `RecursionEngine`, loaded from `--cache` at start
and appended to it on exit; `compute` and `denom` serve its loaded
records as they stand.  `verify` computes on a fresh engine, or with
`--workers N` on at most N worker processes, and no more than the CPUs
the process may run on, each on a fresh engine with one chunk of an
identity grid, and merges their tables into the
invocation's, write-once: a value that disagrees between workers or with
a cached record exits 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import NamedTuple

from .core import EMPTY, MultiIndex, partitions
from .denominators import (check_iz_fixture, check_lemma20,
                           check_proposition17, compute_D, compute_script_D,
                           load_fixture_orders)
from .identities import IDENTITY_NAMES, identity_grid, run_identity
from .recursion import CacheError, EngineDisagreement, RecursionEngine
from .series import format_monomial
from .virasoro import (build_partition_function, commutator_check,
                       substitution_check, virasoro_residual_report)

CACHE_ENV = "TAUKAPPA_CACHE"


def _argument(parse):
    """An argparse `type` that reports the ValueError of `parse`."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None
    return convert


def _parse_d(text: str) -> tuple:
    """`--d 2,3`: comma-separated tau exponents >= 0; '' or '-' is none."""
    text = text.strip()
    if text in ("", "-"):
        return ()
    d = tuple(int(x) for x in text.split(","))
    if min(d) < 0:
        raise ValueError("tau exponents start at 0")
    return d


def _parse_krange(text: str) -> list:
    """`--k -1..3` or `--k 0,2`: Virasoro indices, each at least -1."""
    if ".." in text:
        lo, hi = text.split("..")
        ks = list(range(int(lo), int(hi) + 1))
        if not ks:
            raise ValueError("empty range")
    else:
        ks = [int(x) for x in text.split(",")]
    if any(k < -1 for k in ks):
        raise ValueError("Virasoro indices start at -1")
    return ks


def _int_at_least(low: int):
    """An argparse `type` for an integer that is at least `low`, such as
    a grid bound (`--gmax 2`, at least 0) or `--workers` (at least 1)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be at least {low}")
        return value
    return _argument(parse)


def _emit(args, payload: dict, plain: str):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    elif args.format == "csv":
        import csv      # only here, so that start-up does not load it
        # list, dict and boolean fields as JSON, other scalars as they print
        csv.writer(sys.stdout, lineterminator="\n").writerow(
            json.dumps(v, sort_keys=True) if isinstance(v, (list, dict, bool))
            else v for _, v in sorted(payload.items()))
    else:
        print(plain)


class Result(NamedTuple):
    """One result of a command: its payload for json and csv, its plain
    text, and whether it falsifies a proven statement (exit 3)."""
    payload: dict
    plain: str
    fails: bool = False


# -- compute -----------------------------------------------------------------


def _cmd_compute(args, eng):
    d = args.d or ()
    payload = {"genus": args.genus, "d": list(d)}
    if args.kind == "psi":
        if not d:
            raise SystemExit2("psi needs --d")
        if args.b is not None:
            raise SystemExit2("psi takes no --b; use compute kappa")
        b = EMPTY
    else:
        b = args.b or EMPTY
        if not d and args.genus < 2:
            raise SystemExit2("pure kappa volumes need --genus >= 2")
        payload["b"] = str(b)
    val = eng.value(args.genus, d, b)
    payload["value"] = str(val)
    return [Result(payload, str(val))], None


# -- verify ------------------------------------------------------------------


def _run_identity_chunk(work):
    """Run one chunk of a grid on a fresh engine; return reports and table."""
    name, chunk = work
    eng = RecursionEngine()
    return [run_identity(name, p, eng) for p in chunk], eng.table


def _usable_cpus() -> int:
    """The CPUs this process may run on, or the machine's count where the
    platform reports no affinity."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_grid_nonempty(args, name: str, grid: list):
    """A grid that checks nothing is a usage error, never an empty success."""
    if not grid:
        raise SystemExit2(f"verify {name} checks nothing with --gmax "
                          f"{args.gmax} --nmax {args.nmax} --bmax {args.bmax}; "
                          f"raise a bound")


def _verify_identities(args, eng):
    name = args.target
    grid = list(identity_grid(name, args.gmax, args.nmax, args.bmax))
    _check_grid_nonempty(args, name, grid)
    # one chunk per worker, and no more workers than usable CPUs: each
    # chunk starts a fresh engine, so more chunks would repeat the
    # recursion work that the grid shares
    size = max(1, -(-len(grid) // min(args.workers, _usable_cpus())))
    chunks = [(name, grid[i:i + size]) for i in range(0, len(grid), size)]
    if len(chunks) > 1:
        # imported only here, so jobs without workers do not load the
        # process pool's modules at start-up
        from concurrent.futures import ProcessPoolExecutor
        reports = []
        # under fork every requested process starts at the first submit,
        # so ask for no more than there are chunks
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            for part, table in pool.map(_run_identity_chunk, chunks):
                reports += part
                eng.table.merge(table)  # workers that disagree raise here
    else:
        reports = [run_identity(name, p, eng) for p in grid]
    note = (" (conjectural, never gates)"
            if any(r.conjectural for r in reports) else "")
    return ([Result(r.payload(), r.line(),
                    r.status != "holds" and not r.conjectural)
             for r in reports],
            f"# {name}: {len(reports)} checked, "
            f"{sum(r.status == 'holds' for r in reports)} hold{note}")


def _series_result(head: str, payload: dict, nonzero: list,
                   checked: int) -> Result:
    """The result of a series identity: the (monomial text, coefficient)
    pairs among its `checked` admitted coefficients that do not vanish.
    With no admitted coefficient it checks nothing, and says so."""
    status = "fails" if nonzero else "holds" if checked else "checks nothing"
    return Result(
        {**payload, "checked": checked, "status": status,
         "nonzero": [[m, f"{c.numerator}/{c.denominator}"]
                     for m, c in nonzero]},
        "\n".join([f"{head}: {checked} admitted coefficients, {status}"]
                  + [f"  nonzero {m}: {c}" for m, c in nonzero[:20]]),
        bool(nonzero))


def _verify_virasoro(args, eng):
    partition = build_partition_function(args.gmax, args.nmax, args.bmax, eng)
    reports = [(k, *virasoro_residual_report(k, partition)) for k in args.k]
    _check_grid_nonempty(args, "virasoro", [c for _, _, c in reports if c])
    return [_series_result(f"virasoro k={k}", {"identity": "virasoro", "k": k},
                           nonzero, checked)
            for k, nonzero, checked in reports], None


def _verify_substitution(args, eng):
    res = substitution_check(args.gmax, args.nmax, args.bmax, eng)
    caps = {"gmax": args.gmax, "nmax": args.nmax, "bmax": args.bmax}
    return [_series_result(
        f"substitution @({args.gmax},{args.nmax},{args.bmax})",
        {"identity": "substitution", **caps},
        [(format_monomial(m), c) for m, c in res.nonzero_admitted()],
        len(res.admitted))], None


def _commutator_probe(n, m):
    """Five random terms for the pair (n, m), drawn from a generator seeded
    by the pair alone, so the probe does not depend on the other pairs."""
    import random
    from .series import TruncatedSeries
    rng = random.Random(f"20240311:{n}:{m}")
    terms = {}
    for _ in range(5):
        tpart = tuple(sorted(
            {i: rng.randint(1, 2)
             for i in rng.sample(range(5), rng.randint(0, 2))}.items()))
        spart = tuple(sorted(
            {j: rng.randint(1, 2)
             for j in rng.sample([1, 2], rng.randint(0, 1))}.items()))
        terms[(tpart, spart)] = Fraction(rng.randint(-4, 4),
                                         rng.randint(1, 5))
    return TruncatedSeries(terms)


def _verify_commutators(args, eng):
    ks = sorted(set(args.k))
    pairs = [(n, m) for n in ks for m in ks if m < n]
    if not pairs:
        raise SystemExit2(f"verify commutators checks nothing with --k "
                          f"{','.join(map(str, ks))}; name two indices")
    results = []
    for n, m in pairs:
        ok = not commutator_check(n, m, _commutator_probe(n, m)).terms
        status = "holds" if ok else "fails"
        results.append(Result(
            {"identity": "commutators", "n": n, "m": m, "status": status},
            f"[V_{n}, V_{m}] - ({n}-{m})V_{n+m}: {status}", not ok))
    return results, None


def _verify_engines(args, eng):
    dmax = args.dmax
    count = 0
    # dim = 3g - 3 + n <= dmax; g = 0, n <= 2 has dim < 0, so no partitions
    for g in range(dmax // 3 + 2):
        for n in range(1, dmax - 3 * g + 4):
            for d in partitions(3 * g - 3 + n, n):
                eng.value(g, d)
                count += 1
                # write-once: a route whose value differs from the
                # recursion's raises EngineDisagreement (n = 1 has one)
                for route in ("normalized", "direct")[:n]:
                    value = eng.npoint.correlator(g, d, route)
                    eng.table.record(g, d, EMPTY, value, "npoint")
    # a disagreement raises above, so a returned result always agrees
    return [Result({"dmax": dmax, "correlators": count, "agree": True},
                   f"# engines: {count} correlators, all agree")], None


VERIFIERS = {**dict.fromkeys(IDENTITY_NAMES, _verify_identities),
             "virasoro": _verify_virasoro,
             "commutators": _verify_commutators,
             "substitution": _verify_substitution,
             "engines": _verify_engines}


def _cmd_verify(args, eng):
    fresh = RecursionEngine()   # its values meet the cache only in merge
    out = VERIFIERS[args.target](args, fresh)
    eng.table.merge(fresh.table)
    return out


# -- denom -------------------------------------------------------------------


def _check_rows(args, option: str, key: str, rows: list, head, hint=""):
    """A denominator check as one result: `rows` each end in their
    verdict and go under `key`; `head(*row[:-1])` starts a row's line.
    A check with no rows is a usage error, never an empty success."""
    if not rows:
        raise SystemExit2(f"{option} at genus {args.genus} checks nothing"
                          f"{hint}")
    ok = all(row[-1] for row in rows)
    return [Result({"genus": args.genus, key: [list(row) for row in rows],
                    "status": "holds" if ok else "fails"},
                   "\n".join(f"{head(*row[:-1])} {'ok' if row[-1] else 'FAIL'}"
                             for row in rows), not ok)], None


def _cmd_denom(args, eng):
    # parameter preconditions surface as usage errors, not engine errors
    if (args.script_d or args.lemma20 or args.iz_fixture) and args.genus < 2:
        raise SystemExit2("this invariant needs --genus >= 2")
    if args.n is not None and 2 * args.genus - 2 + args.n <= 0:
        raise SystemExit2(f"({args.genus}, {args.n}) is not a stable shape")
    if args.prop17 and args.nmax < (3 if args.genus == 0 else 1):
        raise SystemExit2("nmax is below the first stable point count")
    if args.lemma20:
        return _check_rows(args, "--lemma20", "orders",
                           check_lemma20(args.genus, eng),
                           lambda p, o: f"p={p}: ord={o}")
    if args.prop17:
        return _check_rows(args, "--prop17", "verdicts",
                           check_proposition17(args.genus, args.nmax, eng),
                           lambda t: f"{t}:",
                           f" with --nmax {args.nmax}; raise --nmax")
    if args.iz_fixture:
        try:
            rows = load_fixture_orders(args.iz_fixture)
        except (OSError, ValueError) as exc:
            raise SystemExit2(f"unreadable fixture {args.iz_fixture}: {exc}")
        orders = [o for o, gp, _ in rows if 1 < gp <= args.genus]
        # with no order in range there is no script-D to compute
        return _check_rows(
            args, "--iz-fixture", "orders",
            orders and check_iz_fixture(
                orders, compute_script_D(args.genus, eng).value),
            lambda o: f"{o} | script-D({args.genus}):",
            f": {args.iz_fixture} has no row with 1 < genus <= {args.genus}")
    if args.script_d:
        rep = compute_script_D(args.genus, eng)
        plain = (f"script-D({args.genus}) = {rep.value} "
                 f"(factorization {rep.factorization}; "
                 f"psi and kappa paths agree)")
    else:
        rep = compute_D(args.genus, args.n, eng)
        plain = f"{rep.value}"
    return [Result(rep.payload(), plain)], None


class SystemExit2(Exception):
    """Usage error signalled from command handlers (exit code 2)."""


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; `main` fills in the `--cache`
    default from the environment on each call."""
    ap = argparse.ArgumentParser(
        prog="taukappa",
        description="exact tau/kappa intersection numbers and their "
                    "verification workbench")
    ap.add_argument("--format", choices=("plain", "json", "csv"),
                    default="plain")
    ap.add_argument("--cache",
                    help=f"correlator cache file (default ${CACHE_ENV})")
    ap.add_argument("--workers", type=_int_at_least(1), default=1,
                    help="most worker processes for a verification "
                         "grid; never more than the usable CPUs")
    sub = ap.add_subparsers(dest="command", required=True)

    bound = _int_at_least(0)
    comp = sub.add_parser("compute", help="compute one correlator")
    comp.add_argument("kind", choices=("psi", "kappa"))
    comp.add_argument("--genus", type=bound, required=True)
    comp.add_argument("--d", type=_argument(_parse_d),
                      help="comma-separated tau exponents")
    comp.add_argument("--b", type=_argument(MultiIndex.parse),
                      help="kappa multi-index, e.g. 1:3,2:1")

    ver = sub.add_parser("verify", help="run a verification grid")
    ver.add_argument("target", choices=tuple(VERIFIERS))
    ver.add_argument("--gmax", type=bound, default=2)
    ver.add_argument("--nmax", type=bound, default=3)
    ver.add_argument("--bmax", type=bound, default=1)
    ver.add_argument("--dmax", type=bound, default=9,
                     help="dimension bound for the engines target")
    ver.add_argument("--k", type=_argument(_parse_krange), default="-1..3",
                     help="Virasoro indices, e.g. 0,1 (default -1..3)")

    den = sub.add_parser("denom", help="denominator invariants")
    den.add_argument("--genus", type=bound, required=True)
    which = den.add_mutually_exclusive_group(required=True)
    which.add_argument("--n", type=_int_at_least(1))
    which.add_argument("--script-d", action="store_true", dest="script_d")
    which.add_argument("--lemma20", action="store_true")
    which.add_argument("--prop17", action="store_true")
    which.add_argument("--iz-fixture", dest="iz_fixture",
                       help="fixture file of automorphism orders")
    den.add_argument("--nmax", type=bound, default=4)
    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse rejects option values with a leading dash; fold `--k -1..2`
    # style ranges into a single token
    i = 0
    while i < len(argv) - 1:
        if argv[i] == "--k" and argv[i + 1].startswith("-"):
            argv[i] = f"--k={argv[i + 1]}"
            del argv[i + 1]
        i += 1
    args = build_parser().parse_args(argv)
    if args.cache is None:
        args.cache = os.environ.get(CACHE_ENV)
    eng = RecursionEngine()     # fresh per invocation, warmed from the cache
    try:
        if args.cache:
            try:
                eng.table.load(args.cache)
            except (ValueError, OSError) as exc:
                raise CacheError(exc) from None
        results, footer = {"compute": _cmd_compute, "verify": _cmd_verify,
                           "denom": _cmd_denom}[args.command](args, eng)
    except CacheError as exc:
        # a torn, malformed or unopenable file, or a record whose value
        # is malformed when first read, is left as it is, never appended to
        print(f"error: unreadable cache {args.cache}: {exc}", file=sys.stderr)
        return 4
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EngineDisagreement as exc:
        print(f"engine disagreement: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        # a worker's RecursionError is raised again here
        print("error: input too deep for the recursion (Python's recursion "
              "limit)", file=sys.stderr)
        return 2
    for res in results:
        _emit(args, res.payload, res.plain)
    if footer:
        print(footer)
    if args.cache:
        try:
            eng.table.append_new(args.cache)
        except OSError as exc:
            # e.g. a path in a missing directory: load found no file there
            print(f"error: cannot write cache {args.cache}: {exc}",
                  file=sys.stderr)
            return 4
    return 3 if any(res.fails for res in results) else 0


if __name__ == "__main__":
    sys.exit(main())
