"""Independent references that only the tests use.

Most were package code that no command reached; the tests keep them as
oracles for the code that replaced them or that they check.  The
mpmath reversion and the back-substitution into a sympy-built shifted
curve check the Puiseux branches.
"""
import decimal
from fractions import Fraction
from math import comb, gcd
from typing import List, Optional, Sequence, Tuple

import mpmath
import sympy

from isingmaps.critical import FIT_GUARD_BITS, NU_CRITICAL, FitResult, thermo_magnetization
from isingmaps.errors import NonPositiveSequence, NonZeroRemainder
from isingmaps.exactalg import (
    PP_ONE, ParamPoly, SturmChain, UniPoly, _q, cauchy_root_bound, poly_gcd, primitive,
    squarefree_part,
)
from isingmaps.precision import DEFAULT_PRECISION_BITS, to_mpf
from isingmaps.series import IsingParams
from isingmaps.singular import Enclosure, _lagrangian_parts, critical_point, radius_numeric


def shift_c(p: ParamPoly, k: int) -> ParamPoly:
    """p times the monomial c^k (Laurent shift)."""
    out = ParamPoly()
    out.terms = {(dv, dc + k): v for (dv, dc), v in p.terms.items()}
    return out


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


def symbolic_tables_by_powers():
    """The model tables as the factored expressions read, every power of nu,
    c and g = 1 - nu^2 taken afresh: the reference for the shared powers of
    :func:`isingmaps.series._symbolic_tables`."""
    nu = ParamPoly.nu()
    c = ParamPoly.c()
    g = 1 - nu ** 2
    n_tab = {
        0: PP_ONE,
        1: -3 * nu ** 2 * (c ** 2 + 1),
        2: -3 * c ** 2 * g * (3 * nu ** 2 + 7),
        4: 135 * c ** 4 * g ** 3,
        6: -243 * c ** 6 * g ** 5,
    }
    d_tab = {0: PP_ONE, 2: -9 * c ** 2 * g ** 2}
    bracket_tab = {
        (7, 0): 405 * c ** 6 * g ** 4,
        (6, 0): 351 * c ** 4 * g ** 3,
        (5, 1): -324 * c ** 4 * g ** 4,
        (5, 0): -27 * c ** 2 * g ** 2 * (5 * c ** 2 - nu ** 2),
        (4, 1): 108 * c ** 4 * g ** 3,
        (4, 0): 3 * c ** 2 * g * (-3 * nu ** 2 - 47),
        (3, 1): 252 * g ** 2 * c ** 2,
        (3, 0): -(6 * c ** 2 + 15) * nu ** 2 - 9 * c ** 2,
        (2, 2): -108 * c ** 2 * g ** 3,
        (2, 1): 9 * g * (4 * c ** 2 + nu ** 2),
        (2, 0): ParamPoly.constant(5),
        (1, 2): -27 * c ** 2 * g ** 2,
        (1, 1): 3 * nu ** 2 - 8,
        (0, 2): 3 * g,
    }
    return n_tab, d_tab, bracket_tab, 3 * c ** 2 * g, 9 * g


def reduced_z_and_char_by_gcd(nu: Fraction, c: Fraction) -> Tuple[UniPoly, UniPoly, UniPoly]:
    """(num, den, char) of :func:`isingmaps.singular.critical_point` before
    the search for s*, from two remainder-sequence gcds: gcd(S N, D^2)
    reduces z(s), and gcd(char, den) is divided out of char until it is 1.
    The reference for the gcds read off the linear factors of D."""
    sn, a, d, b = _lagrangian_parts(IsingParams(nu=nu, c=c))
    dd = d * d
    g = primitive(poly_gcd(sn, dd))
    num, den = sn.scale(b * b).exact_div(g), dd.scale(a).exact_div(g)
    t = gcd(*num.coeffs, *den.coeffs)
    num, den = (UniPoly([x // t for x in q.coeffs]) for q in (num, den))
    if g.degree() == 0:
        char = primitive(num.derivative() * d - (num * d.derivative()).scale(2))
        char = char if d.lc() > 0 else -char
    else:
        char = primitive(num.derivative() * den - num * den.derivative())
    common = poly_gcd(char, den)
    while common.degree() >= 1:
        char = char.exact_div(primitive(common))
        common = poly_gcd(char, den)
    return num, den, char


def cancelling_pair_by_gcd(params: IsingParams) -> Tuple[UniPoly, UniPoly]:
    """(A, B) of :func:`isingmaps.singular.cancelling_polynomial_squarefree`
    from the remainder-sequence gcds g = gcd(S N, D^2) and gcd(g, g')."""
    sn, a, d, b = _lagrangian_parts(params)
    dd = d * d
    g = primitive(poly_gcd(sn, dd))
    h = primitive(poly_gcd(g, g.derivative()))
    if h.degree() >= 1:
        sn, dd = (q.exact_div(h).scale(h.coeff(0)) for q in (sn, dd))
    return (UniPoly([Fraction(c, a) for c in sn.coeffs]),
            UniPoly([Fraction(c, b * b) for c in dd.coeffs]))


def approximate_roots_by_fractions(char: UniPoly, bound: Fraction) -> List[complex]:
    """:func:`isingmaps.singular._approximate_roots` with char(B t) scaled
    through Fraction powers of B, each coefficient rounded by float()."""
    scaled = [c * bound ** k for k, c in enumerate(char.coeffs)]
    d = len(scaled) - 1
    try:
        a = [float(c / scaled[-1]) for c in scaled[:-1]]
        r = 2 * max(abs(x) ** (1 / (d - k)) for k, x in enumerate(a)) or 1.0
        ts = [r * (0.4 + 0.9j) ** k for k in range(d)]
        polish = False
        for _ in range(100):
            step = 0.0
            for i, t in enumerate(ts):
                p = 1.0
                for x in reversed(a):
                    p = p * t + x
                q = 1.0
                for j, u in enumerate(ts):
                    if j != i:
                        q *= t - u
                ts[i] = t - p / q
                step = max(step, abs(p / q))
            if polish:
                break
            polish = step <= r * 2.0 ** -40
        b = float(bound)
    except (OverflowError, ZeroDivisionError):
        return []
    return [b * t for t in ts]


def format_enclosure_by_long_division(lo: Fraction, hi: Fraction, dps: int) -> str:
    """:func:`isingmaps.cli.format_enclosure` by one long-division step per
    digit: the count grows from 1 until the rounding of the midpoint lies
    in [lo, hi] (a point stops at dps + 3 digits)."""
    mid = Fraction(lo + hi, 2)
    num, den = mid.numerator, mid.denominator
    digits = 1
    if num:
        half = Fraction(hi - lo, 2)
        h_num, h_den = half.numerator, half.denominator
        mag = abs(num)
        e = len(str(mag)) - len(str(den))
        if (mag * 10 ** -e if e < 0 else mag) < (den * 10 ** e if e > 0 else den):
            e -= 1
        b = den * 10 ** max(e, 0)
        r = mag * 10 ** max(-e, 0) % b
        slack = h_num * den * 10 ** max(-e, 0)
        while min(r, b - r) * h_den > slack and (slack or digits < dps + 3):
            digits += 1
            r = 10 * r % b
            slack *= 10
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        value = decimal.Decimal(num) / decimal.Decimal(den)
    return format(value, "g")


def mp_value(coef):
    """A Puiseux coefficient as an mpc: a Fraction as it is, an Enclosure
    by its midpoints, at the ambient precision."""
    if isinstance(coef, Enclosure):
        return mpmath.mpc(to_mpf(sum(coef.re) / 2), to_mpf(sum(coef.im) / 2))
    return mpmath.mpc(to_mpf(coef))


def mpmath_reversion(params: IsingParams, max_terms: int, bits: int = 400) -> list:
    """The branches S = s* - Y(Z), Z = rho - z, at the dominant singularity,
    as lists [b_1, .., b_max_terms] of mpc with Y = sum_j b_j Z^(j/v).

    s* is the point's exact one, or Newton's root of char from the middle
    of its isolating interval at ``bits``.  The Taylor coefficients of
    z(s* - Y) come from the shifted num and den in mpf, and each branch is
    reverted by undetermined coefficients: b_1 is a v-th root of
    1 / alpha, and each further b_j makes the coefficient of t^(v+j-1) of
    Z(Y(t)) - t^v vanish, found from the residuals at b_j = 0 and 1.  No
    Lagrange inversion and no interval arithmetic.
    """
    cp = critical_point(params)
    report = radius_numeric(params, scan_uniqueness=False)
    v = report.exponent.denominator
    order = v + max_terms
    with mpmath.workprec(bits):
        if report.exact:
            s = to_mpf(report.s_at_rho)
        else:
            char = [to_mpf(Fraction(c)) for c in reversed(cp.char.coeffs)]
            s = mpmath.findroot(lambda x: mpmath.polyval(char, x),
                                to_mpf(sum(cp.interval) / 2), tol=mpmath.mpf(2) ** (8 - bits))

        def shifted(p: UniPoly):
            return [(-1) ** i * mpmath.fsum(comb(k, i) * to_mpf(Fraction(p.coeff(k)))
                                            * s ** (k - i)
                                            for k in range(i, p.degree() + 1))
                    for i in range(order)]
        n, d = shifted(cp.num), shifted(cp.den)
        q = []
        for i in range(order):
            q.append((n[i] - mpmath.fsum(d[k] * q[i - k] for k in range(1, i + 1))) / d[0])
        zc = [mpmath.mpf(0)] * v + [-x for x in q[v:]]

        def residual(b, j):
            # the coefficient of t^(v+j-1) of sum_i zc[i] Y(t)^i - t^v
            total, power = mpmath.mpc(0), [mpmath.mpc(1)] + [mpmath.mpc(0)] * order
            for i in range(1, order):
                power = [mpmath.fsum(power[a] * b[e - a - 1] for a in range(e)
                                     if 0 <= e - a - 1 < len(b)) if e else 0
                         for e in range(order + 1)]
                total += zc[i] * power[v + j - 1]
            return total - (1 if j == 1 else 0)

        branches = []
        for k in range(v):
            b = [mpmath.root(1 / zc[v], v, k)]
            for j in range(2, max_terms + 1):
                r0 = residual(b + [0], j)
                r1 = residual(b + [1], j)
                b.append(-r0 / (r1 - r0))
            branches.append(b)
        return branches


def shifted_cancelling_curve(params: IsingParams, s0: Fraction, rho0: Fraction) -> dict:
    """C = z D(S)^2 - S N(S) at z = rho0 - Z, S = s0 - Y, over the largest
    power Y^k that divides it, as the support {(y_degree, z_degree):
    Fraction}: N and D from the model tables as the factored expressions
    read (:func:`symbolic_tables_by_powers`), the shift expanded by sympy.
    At c = 1, nu >= 4, where s0 is a root of D, k = 2: without the division
    every residual would move up by 2/v."""
    n_tab, d_tab = symbolic_tables_by_powers()[:2]
    y, z = sympy.symbols("Y Z")
    s = sympy.Rational(s0.numerator, s0.denominator) - y

    def at_s(tab):
        return sum(sympy.Rational(str(q.evaluate(params.nu, params.c))) * s ** k
                   for k, q in tab.items())

    curve = (sympy.Rational(rho0.numerator, rho0.denominator) - z) * at_s(d_tab) ** 2 \
        - s * at_s(n_tab)
    terms = sympy.Poly(sympy.expand(curve), y, z).terms()
    k = min(i for (i, _), _ in terms)
    return {(i - k, j): Fraction(str(coef)) for (i, j), coef in terms}


def puiseux_residual(params: IsingParams, s0: Fraction, rho0: Fraction, terms,
                     bits: int = 192) -> dict:
    """Back-substitution of one Puiseux branch y(Z) = sum coeff Z^e at the
    centre (rho0, s0) into :func:`shifted_cancelling_curve`: the residual
    C(y(Z), Z) as {exponent: value}, exponents past (last + 1)(deg_y + 1)
    dropped.  Exact (Fraction) where every coefficient is, mpc at ``bits``
    otherwise.
    """
    support = shifted_cancelling_curve(params, s0, rho0)
    exact = all(isinstance(c, Fraction) for c, _ in terms)
    with mpmath.workprec(bits):
        y = {}
        for c, e in terms:
            y[e] = y.get(e, 0) + (c if exact else mp_value(c))
        last = terms[-1][1]
        cap = last * (max(i for i, _ in support) + 1) + 1
        residual = {}
        for (i, e), a in support.items():
            acc = {Fraction(0): a if exact else to_mpf(a)}
            for _ in range(i):
                nxt = {}
                for e1, c1 in acc.items():
                    for e2, c2 in y.items():
                        if e1 + e2 <= cap:
                            nxt[e1 + e2] = nxt.get(e1 + e2, 0) + c1 * c2
                acc = nxt
            for e1, c1 in acc.items():
                residual[e1 + e] = residual.get(e1 + e, 0) + c1
        return residual


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


def poly_from_roots(roots) -> UniPoly:
    """The monic polynomial with the given roots."""
    p = UniPoly([Fraction(1)])
    for r in roots:
        p = p * UniPoly([-Fraction(r), Fraction(1)])
    return p


def isolate_real_roots(p: UniPoly):
    """Disjoint half-open rational intervals (a, b], each containing exactly
    one distinct real root of p, in increasing order."""
    if p.degree() < 1:
        return []
    sf = squarefree_part(p)
    chain = SturmChain(sf)
    bound = cauchy_root_bound(sf)
    out = []
    stack = [(-bound, bound)]
    while stack:
        a, b = stack.pop()
        cnt = chain.count(a, b)
        if cnt == 0:
            continue
        if cnt == 1:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        stack.append((a, mid))
        stack.append((mid, b))
    out.sort()
    return out
