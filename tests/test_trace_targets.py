"""The per-layer tracer in `perfbench/layers.py` wraps taukappa functions
by name; every name it lists must resolve, or each traced benchmark
sample fails at install time."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    timed = importlib.import_module("layers").TIMED
    assert timed
    for module, cls, func in timed:
        owner = importlib.import_module(f"taukappa.{module}")
        if cls is not None:
            owner = getattr(owner, cls, None)
            assert owner is not None, (module, cls)
        assert callable(getattr(owner, func, None)), (module, cls, func)
