"""Exact and high-precision tools for the Ising model on random planar maps."""

__version__ = "0.1.0"

from .errors import (
    ComputationError,
    DegenerateBranch,
    DegenerateInterval,
    EnumerationBound,
    FactorizationMismatch,
    NonPositiveSequence,
    NonZeroRemainder,
    NoRootInRange,
    NumericModeAtNuOne,
    PrecisionExhausted,
)

__all__ = [
    "ComputationError",
    "DegenerateBranch",
    "DegenerateInterval",
    "EnumerationBound",
    "FactorizationMismatch",
    "NonPositiveSequence",
    "NonZeroRemainder",
    "NoRootInRange",
    "NumericModeAtNuOne",
    "PrecisionExhausted",
    "__version__",
]
