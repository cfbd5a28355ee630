"""Working-precision helpers for the numeric (mpmath) code paths.

The numeric series are exact at the point and rounded once, so no package
path runs the two-precision audit :func:`audited` any more.  It stays only
as a target of the benchmark's layer trace; its removal waits for the
ROADMAP item that retires the audit.
"""
from __future__ import annotations

import os
from fractions import Fraction

from mpmath import mp, mpf, workprec

from .errors import PrecisionExhausted

DEFAULT_PRECISION_BITS = 192
MIN_PRECISION_BITS = 8
PRECISION_ENV_VAR = "ISINGMAPS_PRECISION"


def check_precision_bits(bits: int, source: str) -> int:
    """``bits`` when it is at least MIN_PRECISION_BITS; otherwise ValueError
    naming ``source``, the flag or variable the value came from."""
    if bits < MIN_PRECISION_BITS:
        raise ValueError("%s must be at least %d bits, got %d"
                         % (source, MIN_PRECISION_BITS, bits))
    return bits


def default_precision_bits() -> int:
    """Default working precision in bits, overridable via the environment."""
    raw = os.environ.get(PRECISION_ENV_VAR)
    if raw is None:
        return DEFAULT_PRECISION_BITS
    try:
        bits = int(raw)
    except ValueError:
        raise ValueError("%s must be an integer number of bits, got %r"
                         % (PRECISION_ENV_VAR, raw)) from None
    return check_precision_bits(bits, PRECISION_ENV_VAR)


def to_mpf(x):
    """Convert an exact rational (or int/float/mpf) to mpf at the ambient
    precision."""
    if isinstance(x, Fraction):
        return mpf(x.numerator) / mpf(x.denominator)
    return mpf(x)


def agree_to_bits(a, b, bits: int) -> bool:
    """True when |a - b| <= 2^-bits * max(1, |a|, |b|)."""
    scale = max(mpf(1), abs(a), abs(b))
    return abs(a - b) <= scale * mpf(2) ** (-bits)


def audited(run, precision_bits: int, *, agreement_bits: int | None = None):
    """Run ``run(bits)`` at p and 2p bits and compare the results.

    No package path calls this; it is kept as a benchmark trace target.

    ``run`` must return either a single mpf or a sequence of mpfs.  Values are
    accepted if every entry agrees to ``agreement_bits`` (default p/2) bits;
    otherwise PrecisionExhausted is raised.  The values from the p-bit run are
    returned, so the result carries exactly the requested precision.
    """
    need = agreement_bits if agreement_bits is not None else precision_bits // 2
    with workprec(precision_bits):
        lo = run(precision_bits)
    with workprec(2 * precision_bits):
        hi = run(2 * precision_bits)
    lo_seq = lo if isinstance(lo, (list, tuple)) else [lo]
    hi_seq = hi if isinstance(hi, (list, tuple)) else [hi]
    if len(lo_seq) != len(hi_seq):
        raise PrecisionExhausted("audit runs returned different shapes")
    with workprec(2 * precision_bits):
        for x, y in zip(lo_seq, hi_seq):
            if not agree_to_bits(x, y, need):
                raise PrecisionExhausted(
                    "results at %d and %d bits disagree beyond %d bits"
                    % (precision_bits, 2 * precision_bits, need)
                )
    return lo
