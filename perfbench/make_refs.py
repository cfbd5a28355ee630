"""Write refs.json: reference values for every operation the workloads can draw.

Each reference comes from a route other than the one the benchmark times:

* radius at c = 1: the closed forms ``rho_closed_form`` and
  ``s_at_rho_closed_form``; exponent 1/3 at (4, 1) and 1/2 elsewhere;
* radius at c != 1: the certified enclosure at tol 1e-40, with no exponent
  and no uniqueness scan;
* exponent-fit inputs: Z_n over exact Fractions at the point (the series
  engine's exact ring, where the timed path runs the audited mpf ring);
* thermodynamic F, M and chi: implicit differentiation of
  z(s, c) = s N(s) / D(s)^2 at its critical point s*, done in sympy and
  mpmath, where the timed path takes finite differences of certified radii;
* finite-size F_n, M_n and chi_n, and the symbolic coefficient tables:
  exact-ring Z_n at rational points, with the c-dependence recovered by
  exact interpolation, where the timed path runs the ParamPoly ring;
* enumeration: symbolic Z_1..Z_4 from the series engine, where the timed
  path enumerates dart pairings; map counts from the closed form
  2 3^n (2n)! / (n! (n+2)!).

The thermodynamic operations that fail at generation time are recorded as
known defects with their error type.  Run once from the repository root,
which takes a few minutes:

    python3 perfbench/make_refs.py
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import pathlib
import sys
import time
from fractions import Fraction

import mpmath
import sympy as sp

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from isingmaps import cli  # noqa: E402
from isingmaps.series import (  # noqa: E402
    IsingParams, TruncatedSeries, _Model, _series_powers, _solve_S_ring,
    _symbolic_tables, solve_Z,
)
from isingmaps.singular import (  # noqa: E402
    radius_numeric, rho_closed_form, s_at_rho_closed_form,
)

import workloads  # noqa: E402

DECIMALS = 60
FIT_DIGITS = 50
SYMBOLIC_CHECK_POINTS = (("7/5", "11/13"), ("13/7", "5/3"))


def outward(lo: Fraction, hi: Fraction):
    """[lo, hi] rounded outward to DECIMALS places, as decimal strings."""
    scale = 10 ** DECIMALS
    a = math.floor(lo * scale)
    b = math.ceil(hi * scale)
    return [_fixed(a), _fixed(b)]


def _fixed(k: int) -> str:
    sign = "-" if k < 0 else ""
    digits = str(abs(k)).rjust(DECIMALS + 1, "0")
    return "%s%s.%s" % (sign, digits[:-DECIMALS], digits[-DECIMALS:])


def enclose(value, err=Fraction(1, 10 ** 70)):
    """Enclosure of an exact Fraction or a 300-bit mpf."""
    if isinstance(value, Fraction):
        return {"exact": str(value), "interval": outward(value, value)}
    q = Fraction(mpmath.nstr(value, 90, min_fixed=-math.inf, max_fixed=math.inf))
    return {"exact": None, "interval": outward(q - err, q + err)}


def exact_Z(nu: Fraction, c: Fraction, order: int):
    """Z_1..Z_order at a rational point over exact Fractions (nu != 1)."""
    model = _Model(IsingParams(nu=nu, c=c), "exact")
    s = _solve_S_ring(model, order + 2)
    pw = _series_powers(s, 7)
    one = TruncatedSeries([model.one] + [model.zero] * (order + 2), model.zero)
    w = TruncatedSeries([model.zero] * (order + 3), model.zero)
    for (spow, zpow), coef in model.bracket_tab.items():
        w = w + (pw[spow] if spow else one).shift_up(zpow).scale(coef)
    g = w.divide(one + s.scale(model.e1))
    if any(g.coefficient(i) != 0 for i in (0, 1, 2)):
        raise ArithmeticError("low-order cancellation failed at %s, %s" % (nu, c))
    return [g.coefficient(n + 2) / model.nine_gamma / c ** n
            for n in range(1, order + 1)]


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, json.loads(buf.getvalue())


# ---------------------------------------------------------------------------

def radius_refs(points):
    out = {}
    for nu_s, c_s in points:
        nu, c = Fraction(nu_s), Fraction(c_s)
        if c == 1:
            with mpmath.workprec(300):
                rho = enclose(rho_closed_form(nu, 300))
                s = enclose(s_at_rho_closed_form(nu, 300))
            exponent = "1/3" if nu == 4 else "1/2"
        else:
            rep = radius_numeric(IsingParams(nu=nu, c=c), tol=Fraction(1, 10 ** 40),
                                 with_exponent=False, scan_uniqueness=False)
            rho = {"exact": str(rep.rho) if rep.exact else None,
                   "interval": outward(*rep.rho_interval)}
            s = {"exact": str(rep.s_at_rho) if rep.exact else None,
                 "interval": outward(*rep.s_interval)}
            exponent = "1/2"
        out["%s %s" % (nu_s, c_s)] = {"rho": rho, "s": s, "exponent": exponent}
    return out


def fit_refs(points):
    out = {}
    n_min = max(2, workloads.FIT_N_MAX // 8)
    for nu_s, c_s in points:
        zs = exact_Z(Fraction(nu_s), Fraction(c_s), workloads.FIT_N_MAX)
        with mpmath.workprec(400):
            z = [mpmath.nstr(mpmath.mpf(q.numerator) / q.denominator, FIT_DIGITS)
                 for q in zs[n_min - 1:]]
        out["%s %s" % (nu_s, c_s)] = {"n_min": n_min, "z": z}
    return out


def _model_z():
    """z(s, c) = s N(s) / D(s)^2 as a sympy expression in s, c and nu."""
    s, c, nu = sp.symbols("s c nu")

    def to_sympy(pp):
        return sum(sp.Rational(v.numerator, v.denominator) * nu ** dn * c ** dc
                   for (dn, dc), v in pp.terms.items())

    n_tab, d_tab, _, _, _ = _symbolic_tables()
    big_n = sum(to_sympy(v) * s ** k for k, v in n_tab.items())
    big_d = sum(to_sympy(v) * s ** k for k, v in d_tab.items())
    return s * big_n / big_d ** 2, (s, c, nu)


def thermo_refs(points, radius):
    out = {}
    z, (s, c, nu) = _model_z()
    parts = {"z": z, "zs": sp.diff(z, s), "zc": sp.diff(z, c),
             "zss": sp.diff(z, s, 2), "zsc": sp.diff(z, s, c), "zcc": sp.diff(z, c, 2)}
    for nu_s, c_s in points:
        nu0, c0 = Fraction(nu_s), Fraction(c_s)
        fn = {k: sp.lambdify((s, c), e.subs(nu, sp.Rational(nu0.numerator, nu0.denominator)),
                             "mpmath") for k, e in parts.items()}
        ref = radius["%s %s" % (nu_s, c_s)]
        with mpmath.workdps(80):
            cx = mpmath.mpf(c0.numerator) / c0.denominator
            s_lo, s_hi = (mpmath.mpf(x) for x in ref["s"]["interval"])
            s_star = mpmath.findroot(lambda x: fn["zs"](x, cx), (s_lo + s_hi) / 2)
            if not s_lo <= s_star <= s_hi:
                raise ArithmeticError("critical point left its enclosure at %s, %s"
                                      % (nu_s, c_s))
            v = {k: f(s_star, cx) for k, f in fn.items()}
            rho_lo, rho_hi = (mpmath.mpf(x) for x in ref["rho"]["interval"])
            if not rho_lo - mpmath.mpf(10) ** -58 <= v["z"] <= rho_hi + mpmath.mpf(10) ** -58:
                raise ArithmeticError("z(s*) misses the certified radius at %s, %s"
                                      % (nu_s, c_s))
            ld = cx * v["zc"] / v["z"]
            rho2 = v["zcc"] - v["zsc"] ** 2 / v["zss"]
            sd = cx ** 2 * rho2 / v["z"]
            entry = {"F": mpmath.nstr(-mpmath.log(cx * v["z"]), 50),
                     "M": mpmath.nstr(-(1 + ld), 50),
                     "chi": mpmath.nstr(ld * ld - ld - sd, 50),
                     "known_defect": None}
        code, envelope = run_cli(workloads.thermo_op(nu_s, c_s))
        if code != 0:
            kind = envelope["error"]["type"]
            if kind != "StepTooLarge":
                raise RuntimeError("unexpected failure %s at %s, %s" % (kind, nu_s, c_s))
            entry["known_defect"] = kind
        out["%s %s" % (nu_s, c_s)] = entry
    return out


def _interpolate(xs, ys):
    """Monomial coefficients of the polynomial through (xs, ys), exactly."""
    coef = list(ys)
    n = len(xs)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = [coef[-1]]
    for k in range(n - 2, -1, -1):
        new = [Fraction(0)] * (len(poly) + 1)
        for i, a in enumerate(poly):
            new[i + 1] += a
            new[i] -= a * xs[k]
        new[0] += coef[k]
        poly = new
    return poly


def _laurent_in_c(nu: Fraction, n: int, samples):
    """Coefficients {k: a_k} of Z_n(nu, c) = sum a_k c^k.

    c^(n+2) Z_n is taken as a polynomial of degree at most 3n+4, fitted
    through 3n+5 integer values of c and verified on three more.
    """
    need = 3 * n + 5
    xs = [Fraction(j) for j in range(1, need + 4)]
    ys = [samples[j][n - 1] * xs[j - 1] ** (n + 2) for j in range(1, need + 4)]
    poly = _interpolate(xs[:need], ys[:need])
    for x, y in zip(xs[need:], ys[need:]):
        if sum(a * x ** i for i, a in enumerate(poly)) != y:
            raise ArithmeticError("c-interpolation of Z_%d failed at nu = %s" % (n, nu))
    return {i - (n + 2): a for i, a in enumerate(poly) if a}


def finite_refs():
    out = {}
    top = max(workloads.FINITE_SIZES)
    for nu_s in sorted({nu for nu, _ in workloads.FINITE_POINTS}, key=Fraction):
        nu = Fraction(nu_s)
        samples = {j: exact_Z(nu, Fraction(j), top) for j in range(1, 3 * top + 9)}
        for n in workloads.FINITE_SIZES:
            laurent = _laurent_in_c(nu, n, samples)
            for p_nu, c_s in workloads.FINITE_POINTS:
                if p_nu != nu_s:
                    continue
                c0 = Fraction(c_s)
                zn = sum(a * c0 ** k for k, a in laurent.items())
                d1 = sum(k * a * c0 ** k for k, a in laurent.items())
                d2 = sum(k * k * a * c0 ** k for k, a in laurent.items())
                with mpmath.workprec(400):
                    f = mpmath.log(mpmath.mpf(zn.numerator) / zn.denominator) / n
                out["%s %s %d" % (nu_s, c_s, n)] = {
                    "F": mpmath.nstr(f, 60),
                    "M": str(d1 / (n * zn)),
                    "chi": str((d2 * zn - d1 * d1) / (n * zn * zn)),
                }
    return out


def symbolic_refs():
    top = workloads.SYMBOLIC_ORDER
    values = [exact_Z(Fraction(nu), Fraction(c), top) for nu, c in SYMBOLIC_CHECK_POINTS]
    return {"check_points": [list(p) for p in SYMBOLIC_CHECK_POINTS],
            "values": {str(n): [str(v[n - 1]) for v in values]
                       for n in range(1, top + 1)}}


def enumerate_refs():
    n = workloads.ENUMERATE_N
    series = solve_Z(IsingParams(nu=2, c=1), n)
    maps = 2 * 3 ** n * math.factorial(2 * n) // (math.factorial(n) * math.factorial(n + 2))
    return {str(n): {
        "terms": [[dn, dc, str(v)] for (dn, dc), v in
                  sorted(series.coefficient(n).terms.items())],
        "maps": maps,
        "total_matchings": math.prod(range(1, 4 * n, 2)),
        "planar_matchings": maps * math.factorial(n) * 4 ** n // (4 * n),
    }}


def _points(workload):
    return sorted({(op[2], op[4]) for op in workloads.all_ops(workload)},
                  key=lambda p: (Fraction(p[1]), Fraction(p[0])))


def main():
    started = time.time()
    radius_points = sorted(set(_points("radius-sweep")) | set(_points("series-asymptotics"))
                           | set(_points("thermo-observables")),
                           key=lambda p: (Fraction(p[1]), Fraction(p[0])))
    refs = {"radius": radius_refs(radius_points)}
    print("radius: %d points, %.0f s" % (len(refs["radius"]), time.time() - started))
    refs["thermo"] = thermo_refs(_points("thermo-observables"), refs["radius"])
    print("thermo: %.0f s" % (time.time() - started))
    refs["finite"] = finite_refs()
    refs["symbolic"] = symbolic_refs()
    refs["enumerate"] = enumerate_refs()
    print("symbolic: %.0f s" % (time.time() - started))
    refs["fit"] = fit_refs(_points("series-asymptotics"))
    print("fit: %.0f s" % (time.time() - started))
    (HERE / "refs.json").write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
