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
    """The working precision cannot certify a result: an interval divisor
    of a thermodynamic or Puiseux enclosure contains 0, or the two runs of
    the precision audit disagree."""


class EnumerationBound(ComputationError):
    """Brute-force enumeration was requested beyond the supported size."""


class NoRootInRange(ComputationError):
    """The admissible interval holds no certified root."""


class DegenerateBranch(ComputationError):
    """Puiseux branches of ramification 4 or more were asked for."""


class NonPositiveSequence(ComputationError):
    """A log-based exponent fit received a non-positive coefficient."""


class FarField(ValueError):
    """A point outside the validated region |c - 1| <= 1/4, not allowed:
    a usage error, not a failed computation."""
