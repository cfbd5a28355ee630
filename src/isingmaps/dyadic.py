"""Outward-rounded fixed-point intervals over ``int``.

A pair (lo, hi) of ints at scale 2^-p encloses every x with
lo 2^-p <= x <= hi 2^-p.  Sums are exact; every product and quotient
rounds its lower end down and its upper end up (naive interval arithmetic
with outward rounding, as in Moore, Interval Analysis, 1966).

:func:`log` encloses log(a / b) for positive integers a and b.  It reduces
the argument by a power of two and by square roots (``math.isqrt``), sums
the atanh series, and widens that one point value by an a-priori bound on
its rounding and truncation errors (Brent and Zimmermann, Modern Computer
Arithmetic, 2010, sec. 4.2 and 4.4).  ln 2 is computed once per precision.
:func:`root` encloses (a / b)^(1/n) by the integer n-th root :func:`iroot`.
"""
from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import Sequence, Tuple

from .errors import PrecisionExhausted

Interval = Tuple[int, int]


def add(a: Interval, b: Interval) -> Interval:
    return a[0] + b[0], a[1] + b[1]


def sub(a: Interval, b: Interval) -> Interval:
    return a[0] - b[1], a[1] - b[0]


def mul(a: Interval, b: Interval, p: int) -> Interval:
    ends = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(ends) >> p, -(-max(ends) >> p)


def square(a: Interval, p: int) -> Interval:
    lo, hi = a
    if lo >= 0:
        small, big = lo * lo, hi * hi
    elif hi <= 0:
        small, big = hi * hi, lo * lo
    else:
        small, big = 0, max(lo * lo, hi * hi)
    return small >> p, -(-big >> p)


def div(a: Interval, b: Interval, p: int) -> Interval:
    if b[0] <= 0 <= b[1]:
        raise PrecisionExhausted("interval divisor contains 0")
    tops = (a[0] << p, a[1] << p)
    return (min(x // y for x in tops for y in b),
            max(-(-x // y) for x in tops for y in b))


def horner(coeffs: Sequence[int], s: Interval, p: int) -> Interval:
    """The integer polynomial sum coeffs[k] s^k over an interval s >= 0.

    Each step is mul(acc, s) plus the coefficient; with s >= 0 the lower
    end of that product is lo s_lo or lo s_hi by the sign of lo, and the
    upper end likewise.
    """
    s_lo, s_hi = s
    lo = hi = 0
    for a in reversed(coeffs):
        a <<= p
        lo = (lo * (s_lo if lo >= 0 else s_hi) >> p) + a
        hi = -(-hi * (s_hi if hi >= 0 else s_lo) >> p) + a
    return lo, hi


# ---------------------------------------------------------------------------
# n-th root
# ---------------------------------------------------------------------------

def iroot(x: int, n: int) -> int:
    """floor(x^(1/n)), x >= 0, n >= 1: integer Newton steps down from
    2^ceil(bits / n), none below the root (AM-GM), until one does not
    decrease; ``math.isqrt`` for n = 2."""
    if x < 0 or n < 1:
        raise ValueError("iroot needs x >= 0 and n >= 1")
    if n == 1 or x < 2:
        return x
    if n == 2:
        return isqrt(x)
    r = 1 << -(-x.bit_length() // n)
    while True:
        y = ((n - 1) * r + x // r ** (n - 1)) // n
        if y >= r:
            return r
        r = y


def root(a: int, b: int, n: int, p: int) -> Interval:
    """An enclosure (lo, hi) at scale 2^-p of (a / b)^(1/n), a >= 0, b > 0:
    r = iroot(floor(a 2^(np) / b)) has r^n <= a 2^(np) / b < (r + 1)^n, the
    right side an integer above the floor, so (r, r + 1), or (r, r) when
    r^n b = a 2^(np)."""
    if a < 0 or b <= 0:
        raise ValueError("root needs a >= 0 and b > 0")
    top = a << (n * p)
    r = iroot(top // b, n)
    return (r, r) if r ** n * b == top else (r, r + 1)


# ---------------------------------------------------------------------------
# Logarithm
# ---------------------------------------------------------------------------

def _atanh(u: int, w: int) -> Tuple[int, int]:
    """(s, terms): the atanh series of u 2^-w, 0 <= u <= 2^w / 3, summed
    at scale 2^-w until its next term rounds to 0.

    Every step rounds down, so s is at most the series of the exact u.
    The computed u^(2i+1) falls short of the true one by less than 1.5
    units (the shortfall e obeys e' <= e/9 + u + 1 with u^2 <= 1/9), each
    quotient by 2i + 1 loses less than one more, and the tail after the
    last term is below 1.5 / (1 - 1/9) < 1.7.  So the series lies in
    [s, s + 2.5 terms + 1.7].
    """
    u2 = u * u >> w
    total, term, k = 0, u, 1
    while term:
        total += term // k
        term = term * u2 >> w
        k += 2
    return total, k >> 1


@lru_cache(maxsize=16)
def _ln2(q: int) -> int:
    """ln 2 at scale 2^-q, as 2 atanh(1/3), within 6 terms + 8 units.

    The error of floor(2^q / 3) adds at most 1.125 units to atanh
    (atanh' <= 9/8 up to 1/3), so 2 atanh errs by at most 5 terms + 5.7.
    """
    s, _ = _atanh((1 << q) // 3, q)
    return 2 * s


def log(a: int, b: int, p: int) -> Interval:
    """An enclosure (lo, hi) at scale 2^-p of log(a / b), a and b > 0.

    With k the difference of the bit lengths, m = a / (b 2^k) lies in
    (1/2, 2).  The work runs at w = p + g bits, g = j + 16 guard bits:
    M_0 = floor(m 2^w), then j square roots M_(i+1) = isqrt(M_i 2^w), so
    that m^(2^-j) = M_j 2^-w up to rounding, and log M_j 2^-w = 2 atanh u
    with u = (M_j - 2^w) / (M_j + 2^w), |u| < 0.35 2^-j.  The series runs
    on |u|, since floor division of a negative term would never reach 0.

    Every floor in M_0 and the square roots lowers log M_j 2^-w by less
    than 2.01 2^-w and 1.42 2^-w (M_0 >= 2^(w-1), M_i >= 2^w / sqrt 2),
    which the factor 2^j of the reduction scales to at most
    (2.01 + 2.84 2^j) 2^-w in all.  The series of floor(|u| 2^w) errs by
    at most 2.5 T + 1.7 units for T terms, and the floor of |u| adds
    (16/15) units, so 2^(j+1) atanh errs by at most 2^j (6 T + 8).  k ln 2
    takes ln 2 at 2^-(w+64), which errs by far less than 2^64 / |k| units,
    so k ln 2 rounds to within 2 units.  The point value V is therefore
    within E = 2^j (6 T + 11) + 5 units of log(a / b), and (V - E, V + E)
    rounded outward to scale 2^-p is returned: its width is at most 2
    units of 2^-p whenever 2 E < 2^g, that is for T < 5000 terms, far
    above the T of any p.
    """
    if a <= 0 or b <= 0:
        raise ValueError("log needs positive a and b")
    # one isqrt at 2w bits costs about as much as a dozen series terms, so
    # few pay: this count was fastest from 128 to 1100 bits in CPython, and
    # leaves at most about 60 terms
    j = max(2, p // 128)
    g = j + 16
    w = p + g
    one = 1 << w
    k = a.bit_length() - b.bit_length()
    shift = w - k
    m = (a << shift) // b if shift >= 0 else a // (b << -shift)
    for _ in range(j):
        m = isqrt(m << w)
    s, terms = _atanh((abs(m - one) << w) // (m + one), w)
    value = (s if m >= one else -s) << (j + 1)
    value += k * _ln2(w + 64) >> 64
    err = ((6 * terms + 11) << j) + 5
    return (value - err) >> g, -(-(value + err) >> g)
