"""Exact capacities and distinguishability bounds for tensor-power metrology models."""

from .rep_core import (
    UNBOUNDED,
    Decomposition,
    decompose,
)

__version__ = "0.1.0"

__all__ = [
    "UNBOUNDED",
    "Decomposition",
    "decompose",
    "__version__",
]
