"""Independent references that only the tests use.

Each was package code that no command reached; the tests keep it as an
oracle for the code that replaced it or that it checks.
"""
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import mpmath

from isingmaps.critical import FIT_GUARD_BITS, FitResult
from isingmaps.errors import NonPositiveSequence, NonZeroRemainder
from isingmaps.exactalg import ParamPoly, _q
from isingmaps.precision import DEFAULT_PRECISION_BITS, to_mpf


def pp_exact_div(p: ParamPoly, divisor) -> ParamPoly:
    """p / divisor for ParamPoly (or rational) divisor; raises
    NonZeroRemainder when not divisible.

    Monomials are ordered lexicographically by (deg_nu, deg_c); a leading
    term that the divisor's leading term cannot divide ends the division
    with an error.  Termination is guarded for Laurent inputs.
    """
    if isinstance(divisor, (int, Fraction)):
        divisor = ParamPoly.constant(divisor)
    if divisor.is_zero():
        raise ZeroDivisionError("division by zero ParamPoly")
    lead_key = max(divisor.terms)
    lead_coef = divisor.terms[lead_key]
    rem = dict(p.terms)
    quo: dict = {}
    guard = 4 * (len(p.terms) + 1) * (len(divisor.terms) + 1) + 64
    steps = 0
    while rem:
        steps += 1
        if steps > guard * (len(quo) + 1):
            raise NonZeroRemainder("division did not terminate; remainder nonzero")
        rk = max(rem)
        if rk[0] < lead_key[0]:
            raise NonZeroRemainder("leading term not divisible")
        qk = (rk[0] - lead_key[0], rk[1] - lead_key[1])
        qc = _q(Fraction(rem[rk]) / lead_coef)
        quo[qk] = quo.get(qk, 0) + qc
        for dk, dv in divisor.terms.items():
            key = (qk[0] + dk[0], qk[1] + dk[1])
            tot = rem.get(key, 0) - qc * dv
            if tot:
                rem[key] = tot
            elif key in rem:
                del rem[key]
    out = ParamPoly()
    out.terms = {k: _q(v) for k, v in quo.items() if v}
    return out


def _as_mpf(x):
    return to_mpf(Fraction(x)) if isinstance(x, (int, Fraction)) else mpmath.mpf(x)


def mu_from_ratios(sequence: Sequence, nodes: Optional[Sequence[int]] = None,
                   precision_bits: int = DEFAULT_PRECISION_BITS) -> mpmath.mpf:
    """Extrapolate the ratios Z_{n-1}/Z_n to n = infinity.

    The ratio tends to mu with corrections forming a power series in 1/n, so
    Neville extrapolation to 1/n = 0 over geometrically spaced nodes converges
    much faster than the raw ratio.  ``sequence`` lists Z_1, Z_2, ...
    """
    if nodes is None:
        top = len(sequence)
        nodes = [top // 8, top // 4, top // 2, top]
    nodes = sorted(set(int(n) for n in nodes))
    if nodes[0] < 2:
        raise ValueError("ratio nodes must be >= 2")
    if nodes[-1] > len(sequence):
        raise ValueError("sequence too short for requested nodes")
    with mpmath.workprec(precision_bits):
        xs = []
        tab = []
        for n in nodes:
            prev, cur = _as_mpf(sequence[n - 2]), _as_mpf(sequence[n - 1])
            if not (prev > 0 and cur > 0):
                raise NonPositiveSequence("ratio nodes require positive terms")
            xs.append(mpmath.mpf(1) / n)
            tab.append(prev / cur)
        for lvl in range(1, len(tab)):
            for i in range(len(tab) - lvl):
                tab[i] = tab[i + 1] + (tab[i + 1] - tab[i]) * xs[i + lvl] \
                    / (xs[i] - xs[i + lvl])
        return tab[0]


def _positive_logs(sequence: Sequence, mu, n_lo: int, n_hi: int) -> List[mpmath.mpf]:
    """y_n = log(Z_n mu^n) for n in [n_lo, n_hi]; raises on nonpositive input."""
    log_mu = mpmath.log(_as_mpf(mu))
    ys = []
    for n in range(n_lo, n_hi + 1):
        z = _as_mpf(sequence[n - 1])
        if not z > 0:
            raise NonPositiveSequence("Z_%d is not positive" % n)
        ys.append(mpmath.log(z) + n * log_mu)
    return ys


def mpmath_fit(sequence: Sequence, mu, n_range: Tuple[int, int],
               precision_bits: int) -> FitResult:
    """The exponent fit in mpmath floating point at ``precision_bits`` +
    FIT_GUARD_BITS: every Z_n rounded to an mpf, mpmath logs, fsum."""
    n_lo, n_hi = n_range
    with mpmath.workprec(precision_bits + FIT_GUARD_BITS):
        ys = _positive_logs(sequence, mu, n_lo, n_hi)
        xs = [mpmath.log(n) for n in range(n_lo, n_hi + 1)]
        count = len(xs)
        sx, sy = mpmath.fsum(xs), mpmath.fsum(ys)
        sxx = mpmath.fsum(x * x for x in xs)
        sxy = mpmath.fsum(x * y for x, y in zip(xs, ys))
        slope = (count * sxy - sx * sy) / (count * sxx - sx * sx)
        intercept = (sy - slope * sx) / count
        residual = mpmath.sqrt(mpmath.fsum(
            (y - intercept - slope * x) ** 2 for x, y in zip(xs, ys)) / count)
        alphas = [-(ys[i] - ys[i - 1]) / (xs[i] - xs[i - 1])
                  for i in range(max(1, count - 3), count)]
        aitken = alphas[-1]
        if len(alphas) >= 3:
            a0, a1, a2 = alphas[-3:]
            dd = a2 - 2 * a1 + a0
            if abs(dd) > mpmath.mpf(2) ** (-precision_bits // 2):
                aitken = a2 - (a2 - a1) ** 2 / dd
        return FitResult(mu_estimate=_as_mpf(mu), alpha_exponent=-slope,
                         amplitude=mpmath.exp(intercept), residual=residual,
                         n_range=(n_lo, n_hi), aitken_exponent=aitken)
