"""Error taxonomy shared across the package.

Every failure mode that user code is expected to catch derives from
:class:`ComputationError`, so the command line driver can map any of them
to a single nonzero exit code.
"""


class ComputationError(Exception):
    """Base class for all domain errors raised by this package."""


class NonZeroRemainder(ComputationError):
    """An exact polynomial division left a nonzero remainder."""


class DegenerateInterval(ComputationError):
    """A root-counting interval (a, b] was requested with a >= b."""


class PrecisionExhausted(ComputationError):
    """The working precision cannot certify a result: a thermodynamic
    enclosure is not finite, or a Puiseux branch fails its
    back-substitution self-check."""


class EnumerationBound(ComputationError):
    """Brute-force enumeration was requested beyond the supported size."""


class NoRootInRange(ComputationError):
    """The admissible interval holds no certified root."""


class DegenerateBranch(ComputationError):
    """A Newton-polygon step produced no admissible slope."""


class NonPositiveSequence(ComputationError):
    """A log-based exponent fit received a non-positive coefficient."""
