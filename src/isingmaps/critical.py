"""Observables and critical exponents for the spin-decorated map ensemble.

Finite-size observables come from exact logarithmic c-derivatives of Z_n
at the point: one integer series pass over jets (Z, theta Z, theta^2 Z),
theta = c d/dc, gives all three at once, or at nu = 1 the closed form.
Thermodynamic ones come from one certified
radius solve: rho(c) = z(s*(c), c) with z = s N(s)/D(s)^2 stationary in s at
s*, so the envelope theorem turns the c-derivatives of log rho into exact
derivatives of z at s*.  Those are evaluated on the certified s-interval
in fixed-point interval arithmetic over ``int``: scale 2^-(bits + 64), so
64 guard bits below the working precision, outward rounding of every
product and quotient, and the final ends rounded outward to ``bits``
significant bits.  The expression tree is that of the former evaluation
in mpmath's interval context, so each box lies inside the one it gave.
Each value carries an enclosure.  Closed forms for the
spontaneous magnetization, the susceptibility, and the critical-isotherm
asymptote are provided alongside, with exact rational fast paths; they also
cover c = 1 with nu >= 4, where s* is a root of D.

Coefficient asymptotics are validated by exponent fits of log(Z_n mu^n)
against log n, with a global least-squares slope cross-checked by an
Aitken-accelerated pointwise estimate.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, Union

import mpmath
from mpmath.libmp import from_rational, mpf_log, round_ceiling, round_floor, to_rational

from .errors import NonPositiveSequence, PrecisionExhausted
from .exactalg import PP_ZERO, evaluate_together, rational_sqrt
from .precision import DEFAULT_PRECISION_BITS, to_mpf
from .series import IsingParams, _symbolic_tables, solve_Z, solve_Z_jets
from .singular import SingularityReport, radius_numeric, rho_closed_form

Number = Union[Fraction, mpmath.mpf]

NU_CRITICAL = Fraction(4)


@dataclass(frozen=True)
class FitResult:
    """Outcome of a coefficient-asymptotics fit Z_n ~ amplitude mu^-n n^-alpha.

    ``alpha_exponent`` is the global least-squares estimate of the polynomial
    correction exponent; ``aitken_exponent`` the accelerated pointwise
    estimate at n_max.  ``residual`` is the root-mean-square fit residual.
    """

    mu_estimate: mpmath.mpf
    alpha_exponent: mpmath.mpf
    amplitude: mpmath.mpf
    residual: mpmath.mpf
    n_range: Tuple[int, int]
    aitken_exponent: mpmath.mpf


# ---------------------------------------------------------------------------
# Free energy and finite-size observables
# ---------------------------------------------------------------------------

_RADIUS_TOL = Fraction(1, 10 ** 28)


@lru_cache(maxsize=512)
def _rho_point(nu: Fraction, c: Fraction) -> SingularityReport:
    """The certified radius report at an exact rational point, to _RADIUS_TOL."""
    return radius_numeric(
        IsingParams(nu=nu, c=c), tol=_RADIUS_TOL,
        with_exponent=False, scan_uniqueness=False,
    )


def free_energy(params: IsingParams, precision_bits: int = DEFAULT_PRECISION_BITS) -> mpmath.mpf:
    """F = -log(mu) with mu = c rho.

    At c = 1 rho is the closed form at the working precision; elsewhere it
    is the midpoint of the certified radius, good to _RADIUS_TOL.
    """
    if params.c == 1:
        mu = rho_closed_form(params.nu, precision_bits)
    else:
        mu = params.c * _rho_point(params.nu, params.c).rho
    with mpmath.workprec(precision_bits):
        return -mpmath.log(to_mpf(mu))


@lru_cache(maxsize=8)
def _symbolic_Z(order: int):
    """(Z_0, ..., Z_order) as polynomials in nu and c: one packed pass, cached.

    The ``check`` battery compares it with the nu = 1 closed form, and
    ``perfbench/layertrace.py`` reports its cache counters.
    """
    dummy = IsingParams(nu=2, c=1)  # symbolic tables do not depend on the point
    series = solve_Z(dummy, order)
    return tuple(series.coefficient(n) for n in range(order + 1))


@lru_cache(maxsize=64)
def _theta_Z(nu: Fraction, c: Fraction, n: int) -> Tuple[Fraction, Fraction, Fraction]:
    """(Z_n, theta Z_n, theta^2 Z_n) at the point, theta = c d/dc, exact.

    Read from :func:`solve_Z_jets` (one integer jet pass, or the closed
    form at nu = 1), shared by the three finite-size observables.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    return solve_Z_jets(IsingParams(nu=nu, c=c), n)[n]


def finite_magnetization(n: int, params: IsingParams) -> Fraction:
    """M_n = c d_c Z_n / (n Z_n), exact at the point."""
    zf, df, _ = _theta_Z(params.nu, params.c, n)
    return df / (n * zf)


def finite_susceptibility(n: int, params: IsingParams) -> Fraction:
    """chi_n = (c d_c)^2 log Z_n / n, exact at the point."""
    zf, df, ddf = _theta_Z(params.nu, params.c, n)
    return (ddf * zf - df * df) / (n * zf * zf)


def finite_free_energy(n: int, params: IsingParams,
                       precision_bits: int = DEFAULT_PRECISION_BITS) -> mpmath.mpf:
    """F_n = (1/n) log Z_n, from the exact Z_n rounded to the working precision."""
    zn = _theta_Z(params.nu, params.c, n)[0]
    with mpmath.workprec(precision_bits):
        return mpmath.log(to_mpf(zn)) / n


# ---------------------------------------------------------------------------
# Closed forms at c = 1
# ---------------------------------------------------------------------------

def m0_closed(nu, precision_bits: int = DEFAULT_PRECISION_BITS) -> Number:
    """Spontaneous magnetization: 3 nu sqrt(nu^2-16)/(3 nu^2 - 8) for nu >= 4, else 0."""
    nu = Fraction(nu)
    if nu <= 0:
        raise ValueError("nu must be positive")
    if nu < 4:
        return Fraction(0)
    disc = nu ** 2 - 16
    root = rational_sqrt(disc)
    if root is not None:
        return 3 * nu * root / (3 * nu ** 2 - 8)
    with mpmath.workprec(precision_bits):
        return 3 * to_mpf(nu) * mpmath.sqrt(to_mpf(disc)) / to_mpf(3 * nu ** 2 - 8)


def chi_closed(nu, precision_bits: int = DEFAULT_PRECISION_BITS) -> Number:
    """Zero-field susceptibility: 3 nu/((2 sqrt(nu)+1)(sqrt(nu)-2)^2), +inf for nu >= 4."""
    nu = Fraction(nu)
    if nu <= 0:
        raise ValueError("nu must be positive")
    if nu >= 4:
        return mpmath.inf
    root = rational_sqrt(nu)
    if root is not None:
        return 3 * nu / ((2 * root + 1) * (root - 2) ** 2)
    with mpmath.workprec(precision_bits):
        r = mpmath.sqrt(to_mpf(nu))
        return 3 * to_mpf(nu) / ((2 * r + 1) * (r - 2) ** 2)


def m_critical_asymptote(c, precision_bits: int = DEFAULT_PRECISION_BITS) -> mpmath.mpf:
    """Critical-isotherm magnetization scale (3/5) 2^(3/5) (c-1)^(1/5)."""
    c = Fraction(c)
    if c <= 1:
        raise ValueError("c must exceed 1")
    with mpmath.workprec(precision_bits):
        return mpmath.mpf(3) / 5 * mpmath.mpf(2) ** (mpmath.mpf(3) / 5) \
            * to_mpf(c - 1) ** (mpmath.mpf(1) / 5)


# ---------------------------------------------------------------------------
# Thermodynamic observables by the envelope theorem
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _defining_polys():
    """(N, theta N, theta^2 N) and (D, theta D, theta^2 D): coefficient
    lists in s, index equal to degree, of ParamPoly in nu and c."""
    families = []
    for tab in _symbolic_tables()[:2]:
        f = [tab.get(k, PP_ZERO) for k in range(max(tab) + 1)]
        tf = [a.c_log_derivative() for a in f]
        families.append((f, tf, [a.c_log_derivative() for a in tf]))
    return tuple(families)


# Fixed-point intervals: a pair (lo, hi) of ints at scale 2^-p encloses every
# x with lo 2^-p <= x <= hi 2^-p.  Sums are exact; every product and
# quotient rounds its lower end down and its upper end up (naive interval
# arithmetic with outward rounding, as in Moore, Interval Analysis, 1966).

def _fx_add(a, b):
    return a[0] + b[0], a[1] + b[1]


def _fx_sub(a, b):
    return a[0] - b[1], a[1] - b[0]


def _fx_mul(a, b, p):
    ends = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(ends) >> p, -(-max(ends) >> p)


def _fx_square(a, p):
    lo, hi = a
    if lo >= 0:
        small, big = lo * lo, hi * hi
    elif hi <= 0:
        small, big = hi * hi, lo * lo
    else:
        small, big = 0, max(lo * lo, hi * hi)
    return small >> p, -(-big >> p)


def _fx_div(a, b, p):
    if b[0] <= 0 <= b[1]:
        raise PrecisionExhausted("interval divisor contains 0")
    tops = (a[0] << p, a[1] << p)
    return (min(x // y for x in tops for y in b),
            max(-(-x // y) for x in tops for y in b))


def _fx_horner(coeffs: Sequence[int], s, p):
    """The integer polynomial sum coeffs[k] s^k over an interval s >= 0.

    Each step is _fx_mul(acc, s) plus the coefficient; with s >= 0 the
    lower end of that product is lo s_lo or lo s_hi by the sign of lo, and
    the upper end likewise.
    """
    s_lo, s_hi = s
    lo = hi = 0
    for a in reversed(coeffs):
        a <<= p
        lo = (lo * (s_lo if lo >= 0 else s_hi) >> p) + a
        hi = -(-hi * (s_hi if hi >= 0 else s_lo) >> p) + a
    return lo, hi


def _log_derivatives(family, nu: Fraction, c: Fraction, s, p):
    """theta, theta^2, d_s theta and d_s^2 of log f over the interval s, for
    the family (f, theta f, theta^2 f) of polynomials in s.

    The family is evaluated at (nu, c) over one denominator, which cancels
    from every ratio below, so the integer numerators are used as they are.
    """
    f, tf, ttf = family
    h, _ = evaluate_together(f + tf + ttf, nu, c)
    i, j = len(f), len(f) + len(tf)
    f, tf, ttf = h[:i], h[i:j], h[j:]
    value = _fx_horner(f, s, p)
    t = _fx_div(_fx_horner(tf, s, p), value, p)
    fs = _fx_div(_fx_horner(_derivative(f), s, p), value, p)
    return (t,
            _fx_sub(_fx_div(_fx_horner(ttf, s, p), value, p), _fx_square(t, p)),
            _fx_sub(_fx_div(_fx_horner(_derivative(tf), s, p), value, p),
                    _fx_mul(t, fs, p)),
            _fx_sub(_fx_div(_fx_horner(_derivative(_derivative(f)), s, p), value, p),
                    _fx_square(fs, p)))


def _derivative(coeffs: Sequence[int]) -> List[int]:
    return [k * a for k, a in enumerate(coeffs)][1:]


# Guard bits of the fixed-point evaluation below the working precision.
THERMO_GUARD_BITS = 64


def thermo_enclosures(nu, c, precision_bits: int = DEFAULT_PRECISION_BITS
                      ) -> Dict[str, Tuple[Fraction, Fraction]]:
    """Certified enclosures {"F", "M", "chi": (lo, hi)} at a rational point.

    With l(s, c) = log z = log s + log N - 2 log D, the critical point s*
    has l_s = 0, so the envelope theorem gives theta log rho = theta l and
    theta^2 log rho = theta^2 l - (d_s theta l)^2 / l_ss there.  Then
    M = -(1 + theta log rho) and chi = theta M.

    M and chi are evaluated over the certified s-interval of one radius
    solve in fixed-point interval arithmetic on ``int``, at scale
    2^-(bits + THERMO_GUARD_BITS) with outward rounding.  It follows the
    expression tree of the former evaluation in mpmath's interval context
    at ``bits`` (Horner, squares as squares) with finer rounding, so each
    box lies inside the one that evaluation gave; the ends are then rounded
    outward to ``bits`` significant bits.  F = -log(c rho) takes ``mpf_log``
    of the ends of c times the radius interval, rounded down and up.  At
    c = 1 with nu >= 4, s* is a root of D, a divisor interval contains 0 and
    PrecisionExhausted is raised; the closed forms cover that point.
    """
    nu, c = Fraction(nu), Fraction(c)
    report = _rho_point(nu, c)
    p = precision_bits + THERMO_GUARD_BITS
    (s_lo, s_hi), (r_lo, r_hi) = report.s_interval, report.rho_interval
    s = ((s_lo.numerator << p) // s_lo.denominator,
         -((-s_hi.numerator << p) // s_hi.denominator))
    n_family, d_family = _defining_polys()
    t, tt, st, ss = (_fx_sub(a, (2 * b[0], 2 * b[1])) for a, b in zip(
        _log_derivatives(n_family, nu, c, s, p), _log_derivatives(d_family, nu, c, s, p)))
    one = (1 << p, 1 << p)
    ss = _fx_sub(ss, _fx_div(one, _fx_square(s, p), p))
    m_lo, m_hi = _fx_add(one, t)
    out = {"F": _negated_log(c * r_lo, c * r_hi, precision_bits)}
    for name, (lo, hi) in (("M", (-m_hi, -m_lo)),
                           ("chi", _fx_sub(_fx_div(_fx_square(st, p), ss, p), tt))):
        out[name] = (_round_bits(lo, p, precision_bits, floor=True),
                     _round_bits(hi, p, precision_bits, floor=False))
    return out


def _round_bits(x: int, p: int, bits: int, floor: bool) -> Fraction:
    """x 2^-p rounded down (``floor``) or up to ``bits`` significant bits."""
    shift = max(abs(x).bit_length() - bits, 0)
    x = x >> shift if floor else -(-x >> shift)
    return Fraction(x << shift, 1 << p)


def _negated_log(lo: Fraction, hi: Fraction, bits: int) -> Tuple[Fraction, Fraction]:
    """An enclosure of -log x over [lo, hi], lo > 0, ends of ``bits`` bits."""
    ends = (mpf_log(from_rational(hi.numerator, hi.denominator, bits, round_ceiling),
                    bits, round_ceiling),
            mpf_log(from_rational(lo.numerator, lo.denominator, bits, round_floor),
                    bits, round_floor))
    return tuple(-Fraction(*to_rational(x)) for x in ends)


def _midpoint(box: Tuple[Fraction, Fraction], precision_bits: int) -> mpmath.mpf:
    lo, hi = box
    with mpmath.workprec(precision_bits):
        return to_mpf((lo + hi) / 2)


def _enclosed_value(name: str, nu, c, precision_bits: int) -> mpmath.mpf:
    return _midpoint(thermo_enclosures(nu, c, precision_bits)[name], precision_bits)


def thermo_magnetization(nu, c, precision_bits: int = DEFAULT_PRECISION_BITS) -> mpmath.mpf:
    """M = -(1 + c rho'/rho): the midpoint of its certified enclosure."""
    nu, c = Fraction(nu), Fraction(c)
    if c == 1 and nu >= NU_CRITICAL:
        with mpmath.workprec(precision_bits):
            return to_mpf(m0_closed(nu, precision_bits))
    return _enclosed_value("M", nu, c, precision_bits)


def thermo_susceptibility(nu, c, precision_bits: int = DEFAULT_PRECISION_BITS) -> mpmath.mpf:
    """chi = c dM/dc: the midpoint of its certified enclosure."""
    nu, c = Fraction(nu), Fraction(c)
    if c == 1 and nu >= NU_CRITICAL:
        return chi_closed(nu, precision_bits)
    return _enclosed_value("chi", nu, c, precision_bits)


def magnetization_limit_estimate(nu, offsets=(Fraction(1, 100), Fraction(1, 1000),
                                              Fraction(1, 10000)),
                                 precision_bits: int = DEFAULT_PRECISION_BITS) -> mpmath.mpf:
    """Extrapolate thermo_magnetization(nu, 1 + t) to t -> 0+.

    For nu >= 4 the radius is a series in sqrt(c - 1) at c = 1, so the
    extrapolation variable is sqrt(t); below nu = 4 it is t itself.
    """
    nu = Fraction(nu)
    ts = sorted((Fraction(t) for t in offsets), reverse=True)
    if not ts or ts[-1] <= 0:
        raise ValueError("offsets must be positive")
    with mpmath.workprec(precision_bits):
        ys = [thermo_magnetization(nu, 1 + t, precision_bits=precision_bits) for t in ts]
        xs = [mpmath.sqrt(to_mpf(t)) if nu >= NU_CRITICAL else to_mpf(t)
              for t in ts]
        for lvl in range(1, len(ys)):
            for i in range(len(ys) - lvl):
                ys[i] = ys[i + 1] + (ys[i + 1] - ys[i]) * xs[i + lvl] \
                    / (xs[i] - xs[i + lvl])
        return ys[0]


# ---------------------------------------------------------------------------
# Coefficient asymptotics
# ---------------------------------------------------------------------------

def _positive_logs(sequence: Sequence, mu, n_lo: int, n_hi: int) -> List[mpmath.mpf]:
    """y_n = log(Z_n mu^n) for n in [n_lo, n_hi]; raises on nonpositive input."""
    log_mu = mpmath.log(to_mpf(Fraction(mu)) if isinstance(mu, (int, Fraction))
                        else mu)
    ys = []
    for n in range(n_lo, n_hi + 1):
        z = sequence[n - 1]
        z = to_mpf(Fraction(z)) if isinstance(z, (int, Fraction)) else mpmath.mpf(z)
        if not z > 0:
            raise NonPositiveSequence("Z_%d is not positive" % n)
        ys.append(mpmath.log(z) + n * log_mu)
    return ys


# The Aitken step loses about log2(n^3) bits (its second difference cancels
# about 7 digits at n = 200) and the least-squares sums a few more, so the
# fit runs this many bits above the precision its results are good to.
FIT_GUARD_BITS = 64


def exponent_fit(sequence: Sequence, mu, n_range: Tuple[int, int],
                 precision_bits: int = DEFAULT_PRECISION_BITS) -> FitResult:
    """Fit log(Z_n mu^n) ~ log(amplitude) - alpha log n on n in n_range.

    ``sequence`` lists Z_1, Z_2, ... (index n-1 holds Z_n).  The global
    least-squares slope gives alpha_exponent; an Aitken-accelerated pointwise
    difference quotient at n_max gives an independent estimate.

    The fit runs at ``precision_bits`` + FIT_GUARD_BITS, so that its values
    are right to ``precision_bits`` for the given Z_n and mu; mpf entries of
    ``sequence`` should carry as many bits (exact ones are rounded there).
    """
    n_lo, n_hi = n_range
    if n_lo < 2:
        raise ValueError("n_range must start at 2 or later")
    if n_hi <= n_lo:
        raise ValueError("n_range must be increasing")
    if n_hi > len(sequence):
        raise ValueError("sequence too short for requested n_range")
    with mpmath.workprec(precision_bits + FIT_GUARD_BITS):
        ys = _positive_logs(sequence, mu, n_lo, n_hi)
        xs = [mpmath.log(n) for n in range(n_lo, n_hi + 1)]
        count = len(xs)
        sx = mpmath.fsum(xs)
        sy = mpmath.fsum(ys)
        sxx = mpmath.fsum(x * x for x in xs)
        sxy = mpmath.fsum(x * y for x, y in zip(xs, ys))
        slope = (count * sxy - sx * sy) / (count * sxx - sx * sx)
        intercept = (sy - slope * sx) / count
        residual = mpmath.sqrt(mpmath.fsum(
            (y - intercept - slope * x) ** 2 for x, y in zip(xs, ys)
        ) / count)
        # the last (up to) three pointwise difference quotients, then one
        # Aitken step on them
        alphas = [-(ys[i] - ys[i - 1]) / (xs[i] - xs[i - 1])
                  for i in range(max(1, count - 3), count)]
        if len(alphas) >= 3:
            a0, a1, a2 = alphas[-3], alphas[-2], alphas[-1]
            dd = a2 - 2 * a1 + a0
            if abs(dd) > mpmath.mpf(2) ** (-precision_bits // 2):
                aitken = a2 - (a2 - a1) ** 2 / dd
            else:
                aitken = a2
        else:
            aitken = alphas[-1]
        return FitResult(
            mu_estimate=to_mpf(Fraction(mu)) if isinstance(mu, (int, Fraction))
            else mpmath.mpf(mu),
            alpha_exponent=-slope,
            amplitude=mpmath.exp(intercept),
            residual=residual,
            n_range=(n_lo, n_hi),
            aitken_exponent=aitken,
        )


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
            prev = sequence[n - 2]
            cur = sequence[n - 1]
            prev = to_mpf(Fraction(prev)) if isinstance(prev, (int, Fraction)) \
                else mpmath.mpf(prev)
            cur = to_mpf(Fraction(cur)) if isinstance(cur, (int, Fraction)) \
                else mpmath.mpf(cur)
            if not (prev > 0 and cur > 0):
                raise NonPositiveSequence("ratio nodes require positive terms")
            xs.append(mpmath.mpf(1) / n)
            tab.append(prev / cur)
        for lvl in range(1, len(tab)):
            for i in range(len(tab) - lvl):
                tab[i] = tab[i + 1] + (tab[i + 1] - tab[i]) * xs[i + lvl] \
                    / (xs[i] - xs[i + lvl])
        return tab[0]
