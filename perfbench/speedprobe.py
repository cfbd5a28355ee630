"""Host-speed probe: times a fixed kernel during and around each operation.

The benchmark's host is a few cores of a shared machine whose speed moves by
up to 1.8x, in bursts from under a second to minutes, with the load of other
tenants.  A CPU clock does not help, since the slowdown is in the core itself
(process time tracks wall time), and the two cores' speeds barely correlate.

So the worker measures the speed of its own core while the operation runs: a
timer signal interrupts the operation every ``INTERVAL_S`` and runs
``kernel``, a fixed ~1.5 ms mix of the kinds of work the package does
(dict-heavy Python loops, mpmath's pure-Python mpf arithmetic, Fractions and
big integers), and a few kernels run just before and after the operation.
The operation's time, less the kernels run inside it, divided by the mean
kernel time and multiplied by ``REFERENCE_S``, is its time at a fixed
reference speed.  On a 2-core x86 VM this cut the run-to-run spread of one
operation from 8-15% to about 4% for operations longer than a second.

The kernel imports nothing of the package, so a change to the package does
not change the yardstick.  It uses mpmath's low-level functions with an
explicit precision, so it never touches the global ``mp`` context of the
operation it interrupts.
"""
from __future__ import annotations

import signal
import time
from fractions import Fraction
from typing import List

from mpmath.libmp import from_int, mpf_add, mpf_div, mpf_mul, round_nearest

INTERVAL_S = 0.05
BRACKET = 3  # kernels run just before and just after each operation
# The kernel's time when the host runs at a typical speed (2-core x86 VM);
# it only sets the scale of the normalised times.
REFERENCE_S = 0.0015

_PREC = 256
_BIG = 3 ** 1500


def kernel() -> float:
    """Run the fixed work once; returns its wall time in seconds."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(3000):
        table[i % 97] = table.get(i % 97, 0) + i * i % 7
    x = mpf_div(from_int(2), from_int(3), _PREC, round_nearest)
    one = from_int(1)
    y = one
    for _ in range(100):
        y = mpf_div(mpf_add(mpf_mul(y, x, _PREC, round_nearest), x, _PREC, round_nearest),
                    mpf_add(x, one, _PREC, round_nearest), _PREC, round_nearest)
    acc = Fraction(0)
    for i in range(1, 50):
        acc = acc * Fraction(i, i + 1) + Fraction(1, 2 * i + 1)
    s = 0
    for i in range(80):
        s = (s + _BIG * (i + 1)) % (_BIG - 1)
    return time.perf_counter() - start


class Probe:
    """Samples kernel times while an operation runs between start() and stop()."""

    def __init__(self):
        self.inside: List[float] = []
        self._busy = False
        self._previous = None

    def _on_alarm(self, signum, frame):
        if not self._busy:
            self._busy = True
            try:
                self.inside.append(kernel())
            finally:
                self._busy = False

    def start(self) -> List[float]:
        """Run the leading bracket and arm the timer; returns the bracket times."""
        before = [kernel() for _ in range(BRACKET)]
        self.inside = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return before

    def stop(self) -> List[float]:
        """Disarm the timer and run the trailing bracket; returns its times."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        return [kernel() for _ in range(BRACKET)]


def reference_seconds(seconds: float, inside: List[float], samples: List[float]) -> float:
    """An operation's time at the reference speed.

    ``seconds`` is its measured time, ``inside`` the kernel times spent within
    it, and ``samples`` every kernel time taken within and around it.
    """
    mean = sum(samples) / len(samples)
    return (seconds - sum(inside)) * REFERENCE_S / mean
