"""Observables and critical exponents for the spin-decorated map ensemble.

Finite-size observables come from exact logarithmic c-derivatives of Z_n
at the point: one integer series pass over jets (Z, theta Z, theta^2 Z),
theta = c d/dc, gives all three at once, or at nu = 1 the closed form.
Thermodynamic ones come from one certified
radius solve: rho(c) = z(s*(c), c) with z = s N(s)/D(s)^2 stationary in s at
s*, so the envelope theorem turns the c-derivatives of log rho into exact
derivatives of z at s*.  Those are evaluated on the certified s-interval
in fixed-point interval arithmetic over ``int`` (:mod:`isingmaps.dyadic`):
scale 2^-(bits + 64), so 64 guard bits below the working precision,
outward rounding of every product and quotient, and the final ends
rounded outward to ``bits`` significant bits.  The expression tree is
that of the former evaluation in mpmath's interval context, so each box
lies inside the one it gave.
Each value carries an enclosure.  At c = 1 M0 and chi are closed forms
(:data:`~isingmaps.singular.CLOSED_FORMS`), which also cover nu >= 4, where
s* is a root of D, and give alpha, beta and gamma exactly
(:func:`transition_exponents`).

Coefficient asymptotics are validated by exponent fits of log(Z_n mu^n)
against log n, with a global least-squares slope cross-checked by an
Aitken-accelerated pointwise estimate.  The fit takes the integers of the
exact series pass as they are, and its logs from the same kernel.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, isqrt
from operator import mul
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import mpmath

from . import dyadic
from .errors import NonPositiveSequence
from .exactalg import PP_ZERO, evaluate_together
from .precision import DEFAULT_PRECISION_BITS, to_mpf
from .series import (IsingParams, TruncatedSeries, _bracket_coefficients, _Model,
                     _symbolic_tables, nu_one_jets, solve_Z)
from .singular import (
    CLOSED_FORMS, SingularityReport, chi_closed, m0_closed, radius_numeric, rho_closed_form)

Number = Union[Fraction, mpmath.mpf]

NU_CRITICAL = Fraction(4)


class FitResult(NamedTuple):
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

    One jet pass to order n, of which only g_(n+2) is unpacked, or the
    closed form at nu = 1 (:func:`~isingmaps.series.nu_one_jets`); shared
    by the three finite-size observables.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if nu == 1:
        return nu_one_jets(c, n)[n]
    model = _Model(IsingParams(nu=nu, c=c), "jet", n)
    return model.z_coefficient(_bracket_coefficients(model, n)[n + 2], n)


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
# The c = 1 transition: exponents from the closed forms, the critical isotherm
# ---------------------------------------------------------------------------

class TransitionExponents(NamedTuple):
    """alpha, beta and gamma of the c = 1 transition at nu = 4, exact.

    ``above`` and ``below`` hold d^k(-log rho)/dnu^k there, k = 1..3, from
    the nu >= 4 and nu < 4 branch; alpha = 2 - k at the first k where they
    differ.  M0^2/(nu - 4) -> ``m0_squared``, chi (nu - 4)^2 -> ``chi``.
    """

    alpha: Optional[int]
    beta: Fraction
    gamma: Fraction
    above: Tuple[Fraction, ...]
    below: Tuple[Fraction, ...]
    m0_squared: Fraction
    chi: Fraction


def _expand(branch, order: int) -> Tuple[int, TruncatedSeries]:
    """(m, s) with the branch, its exponents all integers, equal to h^m s(h)
    near h = nu - 4 = 0, s(0) != 0, s to h^order.  Each factor, taken at
    nu = 4 + h or r = 2 (1 + h/4)^(1/2), adds its order of vanishing times
    its exponent to m."""
    n = order + 2  # orders of vanishing are at most 2
    nu, r = [Fraction(4), Fraction(1)] + [Fraction(0)] * (n - 1), [Fraction(2)]
    for k in range(n):
        r.append(r[-1] * (Fraction(1, 2) - k) / (4 * (k + 1)))
    one = TruncatedSeries([Fraction(1)] + [Fraction(0)] * n, 0)
    p, q, factors = branch
    m, s = 0, one.scale(Fraction(p, q))
    for x, coeffs, e in factors:
        f = one.scale(0)
        for a in reversed(coeffs):
            f = f * TruncatedSeries(nu if x == "nu" else r, 0) + one.scale(a)
        k = next(i for i, a in enumerate(f.coeffs) if a)
        f = TruncatedSeries(f.coeffs[k:k + order + 1], 0)
        m += k * e
        for _ in range(abs(e)):
            s = s * f if e > 0 else s.divide(f)
    return m, s


def transition_exponents() -> TransitionExponents:
    """Read off :data:`~isingmaps.singular.CLOSED_FORMS` by series in
    h = nu - 4 over Q."""
    derivatives = []
    for branch in CLOSED_FORMS["rho"]:
        # d^k(-log rho)/dnu^k = -(k - 1)! [h^(k-1)] s'/s
        s = _expand(branch, 3)[1]
        ds = TruncatedSeries([k * a for k, a in enumerate(s.coeffs)][1:], 0)
        derivatives.append(tuple(-factorial(k) * a for k, a in enumerate(ds.divide(s).coeffs)))
    above, below = derivatives
    jump = next((k for k in (1, 2, 3) if above[k - 1] != below[k - 1]), None)
    p, q, factors = CLOSED_FORMS["M0"][0]  # M0^2 has integer exponents
    m, m0_squared = _expand((p * p, q * q, [(x, f, int(2 * e)) for x, f, e in factors]), 0)
    power, chi = _expand(CLOSED_FORMS["chi"][1], 0)
    return TransitionExponents(None if jump is None else 2 - jump, Fraction(m, 2),
                               Fraction(-power), above, below, m0_squared.coeffs[0],
                               chi.coeffs[0])


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
    value = dyadic.horner(f, s, p)
    t = dyadic.div(dyadic.horner(tf, s, p), value, p)
    fs = dyadic.div(dyadic.horner(_derivative(f), s, p), value, p)
    return (t,
            dyadic.sub(dyadic.div(dyadic.horner(ttf, s, p), value, p), dyadic.square(t, p)),
            dyadic.sub(dyadic.div(dyadic.horner(_derivative(tf), s, p), value, p),
                       dyadic.mul(t, fs, p)),
            dyadic.sub(dyadic.div(dyadic.horner(_derivative(_derivative(f)), s, p), value, p),
                       dyadic.square(fs, p)))


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
    outward to ``bits`` significant bits.  F = -log(c rho) takes the
    enclosed :func:`~isingmaps.dyadic.log` of the ends of c times the radius
    interval at the same scale, its ends likewise rounded outward.  At
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
    t, tt, st, ss = (dyadic.sub(a, (2 * b[0], 2 * b[1])) for a, b in zip(
        _log_derivatives(n_family, nu, c, s, p), _log_derivatives(d_family, nu, c, s, p)))
    one = (1 << p, 1 << p)
    ss = dyadic.sub(ss, dyadic.div(one, dyadic.square(s, p), p))
    m_lo, m_hi = dyadic.add(one, t)
    out = {"F": _negated_log(c * r_lo, c * r_hi, precision_bits)}
    for name, (lo, hi) in (("M", (-m_hi, -m_lo)),
                           ("chi", dyadic.sub(dyadic.div(dyadic.square(st, p), ss, p), tt))):
        out[name] = (_round_bits(lo, p, precision_bits, floor=True),
                     _round_bits(hi, p, precision_bits, floor=False))
    return out


def _round_bits(x: int, p: int, bits: int, floor: bool) -> Fraction:
    """x 2^-p rounded down (``floor``) or up to ``bits`` significant bits."""
    shift = max(abs(x).bit_length() - bits, 0)
    x = x >> shift if floor else -(-x >> shift)
    return Fraction(x << shift, 1 << p)


def _negated_log(lo: Fraction, hi: Fraction, bits: int) -> Tuple[Fraction, Fraction]:
    """An enclosure of -log x over [lo, hi], lo > 0, ends of ``bits`` bits.

    The logs are enclosed at scale 2^-(bits + THERMO_GUARD_BITS); -log x is
    far from 0 (x = c rho < 1/12), so ``bits`` significant bits are coarser.
    """
    p = bits + THERMO_GUARD_BITS
    return (_round_bits(-dyadic.log(hi.numerator, hi.denominator, p)[1], p, bits, floor=True),
            _round_bits(-dyadic.log(lo.numerator, lo.denominator, p)[0], p, bits, floor=False))


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


# ---------------------------------------------------------------------------
# Coefficient asymptotics
# ---------------------------------------------------------------------------

def _as_ratio(x) -> Tuple[int, int]:
    """(num, den), den > 0, of an int, a Fraction, or an mpf, whose value
    is the dyadic rational (-1)^sign man 2^exp, read from its raw tuple as
    it is: mpmath.mpf(x) would round it to the ambient precision, and
    ``man_exp`` drops the sign."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    sign, man, exp, _ = x._mpf_
    man = -man if sign else man
    return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)


def _log_point(a: int, b: int, p: int) -> int:
    """log(a / b) at scale 2^-(p+1): the midpoint of its enclosure
    (:func:`~isingmaps.dyadic.log`) at scale 2^-p, within 1 unit of 2^-p."""
    return sum(dyadic.log(a, b, p))


@lru_cache(maxsize=8)
def _log_range(n_hi: int, p: int) -> Tuple[int, ...]:
    """(0, 0, x_2, ..., x_n_hi), x_n = log n at scale 2^-(p+1) as a sum of
    :func:`_log_point` of the primes dividing n, with multiplicity.

    A sieve of least prime factors q gives x_n = x_(n/q) + x_q, so only
    the primes up to n_hi take a log.
    """
    least = list(range(n_hi + 1))
    for q in range(2, isqrt(n_hi) + 1):
        if least[q] == q:
            for m in range(q * q, n_hi + 1, q):
                if least[m] == m:
                    least[m] = q
    xs = [0, 0]
    for n in range(2, n_hi + 1):
        q = least[n]
        xs.append(_log_point(n, 1, p) if q == n else xs[n // q] + xs[q])
    return tuple(xs)


# The fit's logs are taken at scale 2^-(bits + FIT_GUARD_BITS), and all it
# does with them is exact.  The Aitken step loses about log2(n^3) bits (its
# second difference cancels about 7 digits at n = 200), n log(mu) up to
# log2(n) more, and the least-squares sums a few: 64 guard bits leave every
# result right to ``bits``.
FIT_GUARD_BITS = 64


def exponent_fit(sequence: Sequence, mu, n_range: Tuple[int, int],
                 precision_bits: int = DEFAULT_PRECISION_BITS, *,
                 scale: Tuple = (1, 1)) -> FitResult:
    """Fit log(Z_n mu^n) ~ log(amplitude) - alpha log n on n in n_range.

    ``sequence`` lists Z_1, Z_2, ... (index n-1 holds Z_n) as ints,
    Fractions or mpfs, each read exactly; with ``scale`` = (K, r), two
    nonzero rationals with r > 0, it lists instead the h_n of
    Z_n = h_n / (K r^n), as :func:`~isingmaps.series.scaled_Z` gives them.
    The global least-squares slope gives alpha_exponent; an
    Aitken-accelerated pointwise difference quotient at n_max gives an
    independent estimate.

    y_n = log|h_n| - log|K| + n log(mu / r) (NonPositiveSequence unless
    h_n and K have one sign) and x_n = log n are fixed-point integers at
    scale 2^-(bits + FIT_GUARD_BITS + 1), from enclosed logs
    (:func:`_log_point`, :func:`_log_range`): one per term, two for K and
    mu / r, and one per prime up to n_max.  The slope, intercept, mean
    squared residual and Aitken step are then exact rationals in those
    integers, each rounded to an mpf once at ``bits`` + FIT_GUARD_BITS; the
    amplitude and residual are its exp and sqrt.  So the values are right
    to ``bits`` for the given Z_n and mu.
    """
    n_lo, n_hi = n_range
    if n_lo < 2:
        raise ValueError("n_range must start at 2 or later")
    if n_hi <= n_lo:
        raise ValueError("n_range must be increasing")
    if n_hi > len(sequence):
        raise ValueError("sequence too short for requested n_range")
    k, r = Fraction(scale[0]), Fraction(scale[1])
    mu_num, mu_den = _as_ratio(mu)
    if not (k and r > 0 and mu_num > 0):
        raise ValueError("mu and r must be positive and K nonzero")
    p = precision_bits + FIT_GUARD_BITS
    xs = _log_range(n_hi, p)[n_lo:]
    base = _log_point(abs(k.numerator), k.denominator, p)
    step = _log_point(mu_num * r.denominator, mu_den * r.numerator, p)
    ys = []
    for n in range(n_lo, n_hi + 1):
        a, b = _as_ratio(sequence[n - 1])
        if not a or (a < 0) != (k < 0):
            raise NonPositiveSequence("Z_%d is not positive" % n)
        ys.append(_log_point(abs(a), b, p) - base + n * step)
    count = len(xs)
    sx, sy = sum(xs), sum(ys)
    # slope = slope_num / den; intercept = top / (count den) at scale 2^-(p+1)
    den = count * sum(x * x for x in xs) - sx * sx
    slope_num = count * sum(map(mul, xs, ys)) - sx * sy
    top = sy * den - slope_num * sx
    squares = sum((count * den * y - top - count * slope_num * x) ** 2
                  for x, y in zip(xs, ys))
    # the last (up to) three pointwise difference quotients, then one Aitken
    # step on them
    alphas = [Fraction(ys[i - 1] - ys[i], xs[i] - xs[i - 1])
              for i in range(max(1, count - 3), count)]
    aitken = alphas[-1]
    if len(alphas) == 3:
        a0, a1, a2 = alphas
        dd = a2 - 2 * a1 + a0
        if abs(dd) > Fraction(1, 2 ** ((precision_bits + 1) // 2)):
            aitken = a2 - (a2 - a1) ** 2 / dd
    unit = count * den << (p + 1)
    with mpmath.workprec(p):
        return FitResult(
            mu_estimate=to_mpf(Fraction(mu)) if isinstance(mu, (int, Fraction))
            else mpmath.mpf(mu),
            alpha_exponent=to_mpf(Fraction(-slope_num, den)),
            amplitude=mpmath.exp(to_mpf(Fraction(top, unit))),
            residual=mpmath.sqrt(to_mpf(Fraction(squares, count * unit * unit))),
            n_range=(n_lo, n_hi),
            aitken_exponent=to_mpf(aitken),
        )
