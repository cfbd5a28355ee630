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
    """A Puiseux expansion was asked of a curve with no branch through the
    origin, or of branches of ramification 4 or more."""


class NonPositiveSequence(ComputationError):
    """A log-based exponent fit received a non-positive coefficient."""
