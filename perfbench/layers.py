"""Per-layer tracing of one benchmark sample, installed from outside taukappa.

`Tracer.install()` replaces each function in `TIMED` by a wrapper that
counts calls and accumulates self time: the call's wall time minus the
wall time of the wrapped calls it made.  A module-level function is
replaced in every `taukappa` module that holds it, because several are
imported by name (`cli.compute_script_D`, `npoint.divide_by_variable_sum`,
...) and patching only the defining module would miss those calls.  A
method is replaced on its class.

`core` is deliberately not wrapped: `MultiIndex.weight` alone runs about
760k times in one `denom` sample, so wrapping it would distort the trace.
Its cost shows up in its callers' self time.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, class or None, function) for every timed function
TIMED = (
    ("cli", None, "main"),
    ("recursion", "RecursionEngine", "value"),
    ("recursion", None, "alpha_constant"),
    ("recursion", "CorrelatorTable", "get"),
    ("recursion", "CorrelatorTable", "load"),
    ("recursion", "CorrelatorTable", "append_new"),
    ("denominators", None, "compute_D"),
    ("denominators", None, "compute_script_D"),
    ("npoint", "NPointEngine", "correlator"),
    ("npoint", "NPointEngine", "f_part"),
    ("npoint", "NPointEngine", "component"),
    ("npoint", "NPointEngine", "p_poly"),
    ("npoint", "NPointEngine", "a_factor"),
    ("poly", "SymmetricPoly", "mul"),
    ("poly", None, "divide_by_variable_sum"),
    ("series", "TruncatedSeries", "exp"),
    ("virasoro", None, "mixed_generating_series"),
    ("virasoro", None, "build_partition_function"),
    ("virasoro", None, "virasoro_residual_report"),
    ("virasoro", "VirasoroOperator", "apply"),
)

PROVENANCE_TAGS = ("wk", "mixed", "oracle", "npoint", "cache")

# counts derived from results, beside the per-function calls and self time
COUNTS = (
    "recursion.table.get_hits",
    *(f"recursion.table.new.{tag}" for tag in PROVENANCE_TAGS),
    "recursion.CorrelatorTable.load.records",
    "recursion.CorrelatorTable.append_new.records",
    "series.exp.terms_out",
    "series.exp.admitted_out",
    "virasoro.G.terms",
    "virasoro.G.admitted",
    "virasoro.checked",
)


def span_name(module: str, cls: str | None, func: str) -> str:
    return ".".join(p for p in (module, cls, func) if p)


class Tracer:
    """Call counts, self times and result counts for one interpreter."""

    def __init__(self):
        self.calls = {span_name(*t): 0 for t in TIMED}
        self.self_s = {span_name(*t): 0.0 for t in TIMED}
        self.counts = dict.fromkeys(COUNTS, 0)
        # wall time of wrapped children, one slot per open wrapped call
        self._child_s = [0.0]

    def _timed(self, name: str, fn, after=None):
        calls, self_s, child_s = self.calls, self.self_s, self._child_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_s.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - child_s.pop()
                child_s[-1] += elapsed
                calls[name] += 1
            if after is not None:
                after(out)
            return out
        return wrapper

    def _add(self, key: str, amount: int) -> None:
        self.counts[key] += amount

    def _hooks(self) -> dict:
        add = self._add

        def on_get(value):
            if value is not None:
                add("recursion.table.get_hits", 1)

        def on_exp(z):
            add("series.exp.terms_out", len(z.terms))
            add("series.exp.admitted_out", len(z.admitted or ()))

        def on_g(g):
            add("virasoro.G.terms", len(g.terms))
            add("virasoro.G.admitted", len(g.admitted or ()))

        return {
            "recursion.CorrelatorTable.get": on_get,
            "recursion.CorrelatorTable.load":
                lambda n: add("recursion.CorrelatorTable.load.records", n),
            "recursion.CorrelatorTable.append_new":
                lambda n: add("recursion.CorrelatorTable.append_new.records", n),
            "series.TruncatedSeries.exp": on_exp,
            "virasoro.mixed_generating_series": on_g,
            "virasoro.virasoro_residual_report":
                lambda report: add("virasoro.checked", report[1]),
        }

    def install(self) -> None:
        """Wrap every function in TIMED; call after `import taukappa.cli`."""
        hooks = self._hooks()
        modules = [m for name, m in list(sys.modules.items())
                   if name == "taukappa" or name.startswith("taukappa.")]
        for module, cls, func in TIMED:
            name = span_name(module, cls, func)
            home = sys.modules[f"taukappa.{module}"]
            if cls is not None:
                owner = getattr(home, cls)
                setattr(owner, func,
                        self._timed(name, getattr(owner, func), hooks.get(name)))
                continue
            original = getattr(home, func)
            wrapper = self._timed(name, original, hooks.get(name))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
        self._count_new_records(sys.modules["taukappa.recursion"].CorrelatorTable)

    def _count_new_records(self, table_cls) -> None:
        # untimed: record() is cheap and its time belongs to its caller
        record = table_cls.record
        counts = self.counts

        @functools.wraps(record)
        def counted(table, g, d, b, value, engine):
            before = len(table)
            out = record(table, g, d, b, value, engine)
            if len(table) > before:
                key = f"recursion.table.new.{engine}"
                counts[key] = counts.get(key, 0) + 1
            return out
        table_cls.record = counted

    def report(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s,
                "counts": self.counts}
