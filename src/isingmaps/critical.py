"""Observables and critical exponents for the spin-decorated map ensemble.

Finite-size observables come from exact logarithmic c-derivatives of the
symbolic partition polynomials.  Thermodynamic ones come from one certified
radius solve: rho(c) = z(s*(c), c) with z = s N(s)/D(s)^2 stationary in s at
s*, so the envelope theorem turns the c-derivatives of log rho into exact
derivatives of z at s*, evaluated in interval arithmetic on the certified
s-interval.  Each value carries an enclosure.  Closed forms for the
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

from .errors import NonPositiveSequence, PrecisionExhausted
from .exactalg import UniPoly, rational_sqrt
from .precision import default_precision_bits, to_mpf
from .series import IsingParams, lagrangian_numer_denom, solve_Z
from .singular import SingularityReport, radius_numeric, rho_closed_form

Number = Union[Fraction, mpmath.mpf]

NU_CRITICAL = Fraction(4)


@dataclass(frozen=True)
class ObservableSet:
    """Free energy, magnetization, and susceptibility at one parameter point.

    ``n`` is the vertex count for finite-size values, or None in the
    thermodynamic limit.  ``chi`` may be mpmath.inf (structural divergence
    for nu >= 4 at c = 1).
    """

    F: Number
    M: Number
    chi: Number
    n: Optional[int] = None


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


def free_energy(params: IsingParams, precision_bits: Optional[int] = None) -> mpmath.mpf:
    """F = -log(mu) with mu = c rho.

    At c = 1 rho is the closed form at the working precision; elsewhere it
    is the midpoint of the certified radius, good to _RADIUS_TOL.
    """
    bits = precision_bits or params.precision_bits or default_precision_bits()
    if params.c == 1:
        mu = rho_closed_form(params.nu, bits)
    else:
        mu = params.c * _rho_point(params.nu, params.c).rho
    with mpmath.workprec(bits):
        return -mpmath.log(to_mpf(mu))


@lru_cache(maxsize=8)
def _symbolic_Z(order: int):
    dummy = IsingParams(nu=2, c=1)  # symbolic tables do not depend on the point
    series = solve_Z(dummy, order)
    return tuple(series.coefficient(n) for n in range(order + 1))


def finite_magnetization(n: int, params: IsingParams) -> Fraction:
    """M_n = c d_c Z_n / (n Z_n), exact from the symbolic polynomial."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    zn = _symbolic_Z(n)[n]
    zf = zn.evaluate(params.nu, params.c)
    df = zn.c_log_derivative().evaluate(params.nu, params.c)
    return df / (n * zf)


def finite_susceptibility(n: int, params: IsingParams) -> Fraction:
    """chi_n = (c d_c)^2 log Z_n / n, exact from the symbolic polynomial."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    zn = _symbolic_Z(n)[n]
    zd = zn.c_log_derivative()
    zdd = zd.c_log_derivative()
    zf = zn.evaluate(params.nu, params.c)
    df = zd.evaluate(params.nu, params.c)
    ddf = zdd.evaluate(params.nu, params.c)
    return (ddf * zf - df * df) / (n * zf * zf)


def finite_free_energy(n: int, params: IsingParams,
                       precision_bits: Optional[int] = None) -> mpmath.mpf:
    """F_n = (1/n) log Z_n."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    zn = _symbolic_Z(n)[n].evaluate(params.nu, params.c)
    bits = precision_bits or params.precision_bits or default_precision_bits()
    with mpmath.workprec(bits):
        return mpmath.log(to_mpf(zn)) / n


# ---------------------------------------------------------------------------
# Closed forms at c = 1
# ---------------------------------------------------------------------------

def m0_closed(nu, precision_bits: Optional[int] = None) -> Number:
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
    bits = precision_bits or default_precision_bits()
    with mpmath.workprec(bits):
        return 3 * to_mpf(nu) * mpmath.sqrt(to_mpf(disc)) / to_mpf(3 * nu ** 2 - 8)


def chi_closed(nu, precision_bits: Optional[int] = None) -> Number:
    """Zero-field susceptibility: 3 nu/((2 sqrt(nu)+1)(sqrt(nu)-2)^2), +inf for nu >= 4."""
    nu = Fraction(nu)
    if nu <= 0:
        raise ValueError("nu must be positive")
    if nu >= 4:
        return mpmath.inf
    root = rational_sqrt(nu)
    if root is not None:
        return 3 * nu / ((2 * root + 1) * (root - 2) ** 2)
    bits = precision_bits or default_precision_bits()
    with mpmath.workprec(bits):
        r = mpmath.sqrt(to_mpf(nu))
        return 3 * to_mpf(nu) / ((2 * r + 1) * (r - 2) ** 2)


def m_critical_asymptote(c, precision_bits: Optional[int] = None) -> mpmath.mpf:
    """Critical-isotherm magnetization scale (3/5) 2^(3/5) (c-1)^(1/5)."""
    c = Fraction(c)
    if c <= 1:
        raise ValueError("c must exceed 1")
    bits = precision_bits or default_precision_bits()
    with mpmath.workprec(bits):
        return mpmath.mpf(3) / 5 * mpmath.mpf(2) ** (mpmath.mpf(3) / 5) \
            * to_mpf(c - 1) ** (mpmath.mpf(1) / 5)


# ---------------------------------------------------------------------------
# Thermodynamic observables by the envelope theorem
# ---------------------------------------------------------------------------

def _theta(poly: UniPoly) -> UniPoly:
    """theta = c d/dc applied to the ParamPoly coefficients of a polynomial in s."""
    return UniPoly([a.c_log_derivative() for a in poly.coeffs], zero=poly.zero)


@lru_cache(maxsize=1)
def _defining_polys():
    """(N, theta N, theta^2 N) and (D, theta D, theta^2 D), symbolic in nu and c."""
    dummy = IsingParams(nu=2, c=1)  # symbolic tables do not depend on the point
    return tuple((p, _theta(p), _theta(_theta(p)))
                 for p in lagrangian_numer_denom(dummy, symbolic=True))


def _iv(q: Fraction):
    return mpmath.iv.mpf(q.numerator) / q.denominator


def _iv_eval(poly: UniPoly, s):
    acc = mpmath.iv.mpf(0)
    for a in reversed(poly.coeffs):
        acc = acc * s + _iv(a)
    return acc


def _log_derivatives(polys, nu: Fraction, c: Fraction, s):
    """theta, theta^2, d_s theta and d_s^2 of log f at (s, c), for f = polys[0]."""
    f, tf, ttf = (UniPoly([a.evaluate(nu, c) for a in p.coeffs]) for p in polys)
    value = _iv_eval(f, s)
    t = _iv_eval(tf, s) / value
    fs = _iv_eval(f.derivative(), s) / value
    return (t,
            _iv_eval(ttf, s) / value - t ** 2,
            _iv_eval(tf.derivative(), s) / value - t * fs,
            _iv_eval(f.derivative().derivative(), s) / value - fs ** 2)


def thermo_enclosures(nu, c, precision_bits: Optional[int] = None
                      ) -> Dict[str, Tuple[Fraction, Fraction]]:
    """Certified enclosures {"F", "M", "chi": (lo, hi)} at a rational point.

    With l(s, c) = log z = log s + log N - 2 log D, the critical point s*
    has l_s = 0, so the envelope theorem gives theta log rho = theta l and
    theta^2 log rho = theta^2 l - (d_s theta l)^2 / l_ss there.  Then
    M = -(1 + theta log rho) and chi = theta M.  Everything is evaluated in
    interval arithmetic on the certified s-interval of one radius solve.
    At c = 1 with nu >= 4, s* is a root of D and the enclosures are
    unbounded; the closed forms cover that point.
    """
    nu, c = Fraction(nu), Fraction(c)
    report = _rho_point(nu, c)
    bits = precision_bits or default_precision_bits()
    iv = mpmath.iv
    saved = iv.prec
    iv.prec = bits
    try:
        (s_lo, s_hi), (r_lo, r_hi) = report.s_interval, report.rho_interval
        s = iv.mpf([_iv(s_lo).a, _iv(s_hi).b])
        mu = iv.mpf([_iv(c * r_lo).a, _iv(c * r_hi).b])
        n_polys, d_polys = _defining_polys()
        t, tt, st, ss = (a - 2 * b for a, b in zip(
            _log_derivatives(n_polys, nu, c, s), _log_derivatives(d_polys, nu, c, s)))
        ss = ss - 1 / s ** 2
        values = {"F": -iv.log(mu), "M": -(1 + t), "chi": st ** 2 / ss - tt}
    finally:
        iv.prec = saved
    out = {}
    with mpmath.workprec(bits):
        for name, v in values.items():
            ends = (mpmath.mpf(v.a), mpmath.mpf(v.b))
            if not all(mpmath.isfinite(x) for x in ends):
                raise PrecisionExhausted(
                    "%s has no finite enclosure at nu=%s, c=%s" % (name, nu, c))
            out[name] = tuple(_mpf_fraction(x) for x in ends)
    return out


def _mpf_fraction(x: mpmath.mpf) -> Fraction:
    man, exp = x.man_exp  # the mantissa comes without its sign
    return (-1 if x < 0 else 1) * Fraction(man) * Fraction(2) ** exp


def _enclosed_value(name: str, nu, c, precision_bits: Optional[int]) -> mpmath.mpf:
    lo, hi = thermo_enclosures(nu, c, precision_bits)[name]
    with mpmath.workprec(precision_bits or default_precision_bits()):
        return to_mpf((lo + hi) / 2)


def thermo_magnetization(nu, c, precision_bits: Optional[int] = None) -> mpmath.mpf:
    """M = -(1 + c rho'/rho): the midpoint of its certified enclosure."""
    nu, c = Fraction(nu), Fraction(c)
    if c == 1 and nu >= NU_CRITICAL:
        with mpmath.workprec(precision_bits or default_precision_bits()):
            return to_mpf(m0_closed(nu, precision_bits))
    return _enclosed_value("M", nu, c, precision_bits)


def thermo_susceptibility(nu, c, precision_bits: Optional[int] = None) -> mpmath.mpf:
    """chi = c dM/dc: the midpoint of its certified enclosure."""
    nu, c = Fraction(nu), Fraction(c)
    if c == 1 and nu >= NU_CRITICAL:
        return chi_closed(nu, precision_bits)
    return _enclosed_value("chi", nu, c, precision_bits)


def magnetization_limit_estimate(nu, offsets=(Fraction(1, 100), Fraction(1, 1000),
                                              Fraction(1, 10000)),
                                 precision_bits: Optional[int] = None) -> mpmath.mpf:
    """Extrapolate thermo_magnetization(nu, 1 + t) to t -> 0+.

    For nu >= 4 the radius is a series in sqrt(c - 1) at c = 1, so the
    extrapolation variable is sqrt(t); below nu = 4 it is t itself.
    """
    nu = Fraction(nu)
    ts = sorted((Fraction(t) for t in offsets), reverse=True)
    if not ts or ts[-1] <= 0:
        raise ValueError("offsets must be positive")
    bits = precision_bits or default_precision_bits()
    with mpmath.workprec(bits):
        ys = [thermo_magnetization(nu, 1 + t, precision_bits=bits) for t in ts]
        xs = [mpmath.sqrt(to_mpf(t)) if nu >= NU_CRITICAL else to_mpf(t)
              for t in ts]
        for lvl in range(1, len(ys)):
            for i in range(len(ys) - lvl):
                ys[i] = ys[i + 1] + (ys[i + 1] - ys[i]) * xs[i + lvl] \
                    / (xs[i] - xs[i + lvl])
        return ys[0]


def observables(params: IsingParams, n: Optional[int] = None,
                precision_bits: Optional[int] = None) -> ObservableSet:
    """Bundle F, M, chi at a point: finite-size if n is given, else limiting.

    In the limit at c = 1 the closed forms are used; off c = 1 the
    envelope-theorem derivatives of the certified radius are.
    """
    if n is not None:
        return ObservableSet(
            F=finite_free_energy(n, params, precision_bits),
            M=finite_magnetization(n, params),
            chi=finite_susceptibility(n, params),
            n=n,
        )
    if params.c == 1:
        m_val = m0_closed(params.nu, precision_bits)
        chi_val = chi_closed(params.nu, precision_bits)
    else:
        m_val = thermo_magnetization(params.nu, params.c,
                                     precision_bits=precision_bits)
        chi_val = thermo_susceptibility(params.nu, params.c,
                                        precision_bits=precision_bits)
    return ObservableSet(
        F=free_energy(params, precision_bits), M=m_val, chi=chi_val, n=None,
    )


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
                 precision_bits: Optional[int] = None) -> FitResult:
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
    bits = precision_bits or default_precision_bits()
    with mpmath.workprec(bits + FIT_GUARD_BITS):
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
        # pointwise difference-quotient estimates, then one Aitken step
        alphas = []
        for i in range(1, count):
            alphas.append(-(ys[i] - ys[i - 1]) / (xs[i] - xs[i - 1]))
        if len(alphas) >= 3:
            a0, a1, a2 = alphas[-3], alphas[-2], alphas[-1]
            dd = a2 - 2 * a1 + a0
            if abs(dd) > mpmath.mpf(2) ** (-bits // 2):
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
                   precision_bits: Optional[int] = None) -> mpmath.mpf:
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
    bits = precision_bits or default_precision_bits()
    with mpmath.workprec(bits):
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
