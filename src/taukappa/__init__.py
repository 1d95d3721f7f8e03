"""Exact intersection numbers of tau and kappa classes on moduli of curves.

Everything is computed in arbitrary-precision rational arithmetic; the
package never touches floating point.  See the README for the CLI and
the verification workbench.
"""

from .core import (MultiIndex, double_factorial, enumerate_sub_multiindices,
                   multiindex_binomial)
from .npoint import NPointEngine
from .recursion import (CorrelatorTable, EngineDisagreement, RecursionEngine,
                        alpha_constant)

__version__ = "0.1.0"

__all__ = [
    "MultiIndex", "double_factorial",
    "multiindex_binomial", "enumerate_sub_multiindices",
    "NPointEngine",
    "CorrelatorTable", "EngineDisagreement",
    "RecursionEngine", "alpha_constant",
]
