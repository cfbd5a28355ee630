"""Command-line interface: every pipeline as a reproducible, machine-readable run.

Parameters are parsed as exact rationals (decimal strings or "p/q"), never
round-tripped through binary floats.  Output is a JSON envelope with the
command, the parsed configuration, the result, and provenance metadata
(precision, warnings, timing); tabular commands can emit CSV instead.  Exit
codes: 0 success, 1 computational error, 2 usage error.
"""
from __future__ import annotations

import argparse
import csv
import decimal
import io
import json
import os
import sys
import time
from fractions import Fraction
from functools import lru_cache
from math import floor, log10
from typing import List, Optional, Sequence, Tuple

import mpmath

from .critical import (
    _symbolic_Z,
    chi_closed,
    exponent_fit,
    finite_free_energy,
    finite_magnetization,
    finite_susceptibility,
    free_energy,
    m0_closed,
    thermo_enclosures,
    transition_exponents,
)
from .errors import ComputationError, FarField
from .exactalg import sturm_count
from .mapcount import survey
from .precision import DEFAULT_PRECISION_BITS, MIN_PRECISION_BITS
from .series import (
    IsingParams,
    coefficient_sequence,
    exact_Z,
    nu_one_jets,
    scaled_Z,
    solve_Z,
)
from .singular import (
    closed_form,
    critical_point,
    discriminant_in_z,
    dominant_expansions,
    p1_p2_p3,
    radius_numeric,
    rho_closed_form,
)

COMMANDS = ("coeffs", "enumerate", "radius", "puiseux", "observables",
            "exponent-fit", "check")


# ---------------------------------------------------------------------------
# Parsing and formatting
# ---------------------------------------------------------------------------

def parse_rational(text: str) -> Fraction:
    """Exact rational from a decimal string or "p/q"."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("not a rational: %r" % text)


def parse_rational_list(text: str) -> Tuple[Fraction, ...]:
    """Comma-separated rationals; a part "lo:hi:count" stands for count
    evenly spaced exact rationals from lo to hi (count 1 needs lo == hi)."""
    values: List[Fraction] = []
    for part in text.split(","):
        if ":" not in part:
            values.append(parse_rational(part))
            continue
        fields = part.split(":")
        if len(fields) != 3 or not fields[2].strip().isdecimal():
            raise argparse.ArgumentTypeError("not a lo:hi:count grid: %r" % part)
        lo, hi, count = parse_rational(fields[0]), parse_rational(fields[1]), int(fields[2])
        if count < 1 or (count == 1 and lo != hi):
            raise argparse.ArgumentTypeError(
                "a grid needs count >= 1, and lo == hi when count is 1: %r" % part)
        step = (hi - lo) / (count - 1) if count > 1 else 0
        values.extend(lo + k * step for k in range(count))
    return tuple(values)


_LOG10_2 = log10(2)


def _digits(bits: int) -> int:
    return max(8, int(bits * 0.30103) - 2)


def format_value(x, dps: int = 17) -> str:
    """Rationals as "p/q", floats as decimal strings, infinity as "inf"."""
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    if x == mpmath.inf:
        return "inf"
    return mpmath.nstr(x, dps)


def format_enclosure(lo: Fraction, hi: Fraction, dps: int) -> str:
    """The shortest decimal inside [lo, hi], so that no printed digit is false.

    The midpoint is rounded to the fewest significant digits whose rounding
    lies in [lo, hi].  When lo < hi the midpoint is interior, so such a
    count exists.  Ends one ulp apart at b significant bits are wider than
    |mid| 2^-b, so ceil(b log10 2) + 1 digits suffice for them: 59 at
    b = 192, where dps is 55.  A point enclosure prints to at most dps + 3
    digits.

    The digit count is found over the integers, with mid and (hi - lo)/2
    over one unreduced denominator, so no gcd is taken.  With
    10^e <= |mid| < 10^(e+1), d digits round x = |mid| 10^(d-1-e) to an
    integer, which moves x by min(r, b - r)/b for the fraction part r/b of
    x (at a tie either way, so half-even's choice does not matter); as mid
    is the centre of [lo, hi] the rounding lies inside when that is at most
    (hi - lo)/2 times 10^(d-1-e), compared by cross-multiplying.  That test
    passes for every count past the least that passes, since the d-digit
    decimals are among the (d + 1)-digit ones, and it passes once
    10^(e+1-d) <= hi - lo.  So the count is read off the bit lengths of
    |mid| and of the width (a point starts at dps + 3), moved up until the
    test passes and down while it passes one digit lower: two or three
    tests, unless the rounding lands on a much shorter decimal.  One
    integer division at that count, rounded half-even, gives the value to
    print, formatted as Decimal division at that precision would give it.
    """
    if lo > hi:
        raise ValueError("empty enclosure: lo > hi")
    # mid = num / den and (hi - lo) / 2 = half / den
    ad, cb = lo.numerator * hi.denominator, hi.numerator * lo.denominator
    num, half, den = ad + cb, cb - ad, 2 * lo.denominator * hi.denominator
    if num:
        mag = abs(num)
        e = _decimal_exponent(mag, den)
        b = den * 10 ** max(e, 0)

        def fits(d: int) -> bool:
            # x = |mid| 10^(d-1-e) = mag 10^p / b, and the bound on its
            # rounding error (half / den) 10^(d-1-e) is half 10^p / b
            t = 10 ** (d - 1 + max(-e, 0))
            r = mag * t % b
            return min(r, b - r) <= half * t

        if half:
            # 10^(e+1-d) <= 2 half / den bounds the least count from above
            width_log = (half.bit_length() - den.bit_length() + 1) * _LOG10_2
            digits = max(1, e + 1 - floor(width_log))
            while not fits(digits):
                digits += 1
        else:
            digits = dps + 3
        while digits > 1 and fits(digits - 1):
            digits -= 1
        # |mid| rounded half-even to that count, as Decimal division at that
        # precision gives it: an exact quotient drops its trailing zeros down
        # to the exponent 0 of integer operands
        exp, div = e + 1 - digits, den * 10 ** max(e + 1 - digits, 0)
        q, r = divmod(mag * 10 ** max(digits - 1 - e, 0), div)
        q += 2 * r > div or (2 * r == div and q % 2)
        if q == 10 ** digits:
            q, exp = q // 10, exp + 1
        while not r and exp < 0 and q % 10 == 0:
            q, exp = q // 10, exp + 1
        return format(decimal.Decimal("%s%de%d" % ("-" * (num < 0), q, exp)), "g")
    return "0"


def _ten_power_at_most(e: int, mag: int, den: int) -> bool:
    """10^e <= mag / den, for positive integers mag and den."""
    return den * 10 ** e <= mag if e >= 0 else den <= mag * 10 ** -e


def _decimal_exponent(mag: int, den: int) -> int:
    """The e with 10^e <= mag / den < 10^(e+1), for positive integers."""
    e = floor((mag.bit_length() - den.bit_length()) * _LOG10_2)
    while _ten_power_at_most(e + 1, mag, den):
        e += 1
    while not _ten_power_at_most(e, mag, den):
        e -= 1
    return e


def format_bound(x: Fraction, dps: int, up: bool) -> str:
    """x rounded to dps significant digits up (towards +inf) or down, so
    that the ends of an interval rounded outward hold it; laid out as
    :func:`format_enclosure` lays out its value, trailing zeros dropped.

    In integers: with 10^e <= |x| < 10^(e+1), q = |x| 10^(dps-1-e) is
    rounded away from 0 when that is the direction, else towards it.
    """
    if not x:
        return "0"
    mag, den = abs(x.numerator), x.denominator
    exp = _decimal_exponent(mag, den) + 1 - dps
    q, r = divmod(mag * 10 ** max(-exp, 0), den * 10 ** max(exp, 0))
    q += r > 0 and up == (x > 0)
    while exp < 0 and q % 10 == 0:
        q, exp = q // 10, exp + 1
    return format(decimal.Decimal("%s%de%d" % ("-" * (x < 0), q, exp)), "g")


# ---------------------------------------------------------------------------
# Command implementations.  Each returns (result, warnings, csv_rows) where
# csv_rows is None for the commands that take no --format.
# ---------------------------------------------------------------------------

def _cmd_coeffs(args, bits):
    n_max = args.n_max
    if n_max < 1:
        raise ValueError("--n-max must be at least 1")
    if args.precision_bits is not None and not args.numeric:
        raise ValueError("--precision-bits applies only with --numeric")
    if args.symbolic:
        if args.nu is not None or args.c is not None:
            raise ValueError("--symbolic takes no --nu or --c")
        series = solve_Z(IsingParams(nu=2, c=1), n_max)
        values = [series.coefficient(n).to_str() for n in range(1, n_max + 1)]
    elif args.nu is None or args.c is None:
        raise ValueError("--numeric requires --nu and --c" if args.numeric
                         else "coeffs needs --symbolic, or --nu and --c")
    elif args.numeric:
        values = [format_value(z, _digits(bits))
                  for z in coefficient_sequence(IsingParams(nu=args.nu, c=args.c), n_max, bits)]
    else:
        values = list(map(format_value, exact_Z(IsingParams(nu=args.nu, c=args.c), n_max)[1:]))
    rows = [{"n": n, "value": value} for n, value in enumerate(values, start=1)]
    csv_rows = [("n", "value")] + [(r["n"], r["value"]) for r in rows]
    return {"coefficients": rows}, [], csv_rows


def _cmd_enumerate(args, bits):
    report = survey(args.n)
    result = {
        "n": report.n,
        "partition_polynomial": report.partition_polynomial.to_str(),
        "maps": report.rooted_map_count,
        "total_matchings": report.total_matchings,
        "connected_matchings": report.connected_matchings,
        "planar_matchings": report.planar_matchings,
    }
    return result, [], None


def _shortest_inside(report, interval: Tuple[Fraction, Fraction], dps: int) -> str:
    """An exact singularity's value as p/q, else the shortest decimal inside
    its certified interval."""
    return str(interval[0]) if report.exact else format_enclosure(*interval, dps)


def _radius_point(spec: tuple) -> dict:
    nu, c, tol, allow_far_field, with_exponent, dps = spec
    report = radius_numeric(
        IsingParams(nu=nu, c=c), tol=tol, allow_far_field=allow_far_field,
        with_exponent=with_exponent,
    )

    def ends(interval: Tuple[Fraction, Fraction]) -> List[str]:
        # exact singularities stay rational; interval ends are rounded outward
        return [str(x) if report.exact else format_bound(x, dps, up)
                for x, up in zip(interval, (False, True))]

    return {
        "nu": str(nu),
        "c": str(c),
        "rho": _shortest_inside(report, report.rho_interval, dps),
        "rho_interval": ends(report.rho_interval),
        "mu": _shortest_inside(report, report.mu_interval, dps),
        "mu_interval": ends(report.mu_interval),
        "s_at_rho": _shortest_inside(report, report.s_interval, dps),
        "s_interval": ends(report.s_interval),
        "exponent": None if report.exponent is None else str(report.exponent),
        "exact": report.exact,
        "unique_on_circle": report.uniqueness_checked,
        "warnings": list(report.warnings),
    }


def _cmd_radius(args, bits):
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    dps = _digits(bits)
    specs = [(nu, c, args.tol, args.allow_far_field, not args.no_exponent, dps)
             for nu in args.nu for c in args.c]
    workers = min(args.jobs, len(specs), os.cpu_count() or 1)
    if workers > 1:
        # imported here: the process pool costs every other run start-up time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            points = list(pool.map(_radius_point, specs))
    else:
        points = [_radius_point(spec) for spec in specs]
    warnings = [w for p in points for w in p["warnings"]]
    csv_rows = [("nu", "c", "rho", "mu", "exponent")] + [
        (p["nu"], p["c"], p["rho"], p["mu"], p["exponent"] or "") for p in points
    ]
    if len(points) == 1:
        return points[0], warnings, csv_rows
    return {"points": points}, warnings, csv_rows


def _format_coefficient(coef, dps: int) -> str:
    """A rational Puiseux coefficient as "p/q", an Enclosure as the shortest
    decimal inside it: "(re + imj)" or "(re - imj)" when complex."""
    if isinstance(coef, Fraction):
        return str(coef)
    (lo, hi), re = coef.im, format_enclosure(*coef.re, dps)
    if lo == hi == 0:
        return re
    sign, im = ("-", (-hi, -lo)) if lo + hi < 0 else ("+", (lo, hi))
    return "(%s %s %sj)" % (re, sign, format_enclosure(*im, dps))


def _cmd_puiseux(args, bits):
    if args.max_terms < 1:
        raise ValueError("--max-terms must be at least 1")
    dps = _digits(bits)
    params = IsingParams(nu=args.nu, c=args.c)
    report, expansions = dominant_expansions(
        params, max_terms=args.max_terms, precision_bits=bits
    )
    branches = []
    for exp in expansions:
        terms = [{"exponent": str(e), "coefficient": _format_coefficient(coef, dps)}
                 for coef, e in exp.terms]
        lead = exp.leading_exponent()
        branches.append({
            "leading_exponent": None if lead is None else str(lead),
            "ramification": exp.ramification,
            "exact": exp.exact,
            "terms": terms,
        })
    result = {
        "rho": _shortest_inside(report, report.rho_interval, dps),
        "s_at_rho": _shortest_inside(report, report.s_interval, dps),
        "exact_center": report.exact,
        "exponent": str(report.exponent),
        "branches": branches,
    }
    return result, list(report.warnings), None


def _cmd_observables(args, bits):
    dps = _digits(bits)
    if args.n is not None:
        params = IsingParams(nu=args.nu, c=args.c)
        result = {
            "n": args.n,
            "F": format_value(finite_free_energy(args.n, params, bits), dps),
            "M": format_value(finite_magnetization(args.n, params), dps),
            "chi": format_value(finite_susceptibility(args.n, params), dps),
        }
        return result, [], None
    if args.c != 1:
        box = thermo_enclosures(args.nu, args.c, bits)
        result = {name: format_enclosure(*box[name], dps) for name in ("F", "M", "chi")}
        return result, [], None
    result = {
        "F": format_value(free_energy(IsingParams(nu=args.nu, c=args.c), bits), dps),
        "M0": format_value(m0_closed(args.nu, bits), dps),
        "chi": format_value(chi_closed(args.nu, bits), dps),
    }
    return result, [], None


def _cmd_exponent_fit(args, bits):
    dps = _digits(bits)
    if args.n_max < 4:
        raise ValueError("--n-max must be at least 4")
    n_min = args.n_min if args.n_min is not None else max(2, args.n_max // 8)
    # refused before the pass, with exponent_fit's own messages
    if n_min < 2:
        raise ValueError("n_range must start at 2 or later")
    if n_min >= args.n_max:
        raise ValueError("n_range must be increasing")
    params = IsingParams(nu=args.nu, c=args.c)
    # the pass's integers go to the fit as they are: Z_n = h_n / (K r^n)
    h, scale = scaled_Z(params, args.n_max)
    report = radius_numeric(params, tol=args.tol, with_exponent=False,
                            scan_uniqueness=False)
    fit = exponent_fit(h[1:], report.mu, (n_min, args.n_max), precision_bits=bits,
                       scale=scale)
    result = {
        "mu": format_value(report.mu, dps),
        "mu_exact": report.exact,
        "alpha_exponent": format_value(fit.alpha_exponent, dps),
        "aitken_exponent": format_value(fit.aitken_exponent, dps),
        "amplitude": format_value(fit.amplitude, dps),
        "residual": format_value(fit.residual, dps),
        "n_range": list(fit.n_range),
    }
    return result, [], None


def _check_battery() -> List[dict]:
    checks = []

    def add(name: str, ok: bool, detail: str):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    # the two branches of rho and s* meet at the critical coupling, exactly
    meet = [tuple(closed_form(name, 4, branch=b) for b in (0, 1))
            for name in ("rho", "s_at_rho")]
    add("branch_continuity", meet == [(Fraction(2, 405),) * 2, (Fraction(1, 45),) * 2],
        "rho=%s s=%s at nu=4 from both branches" % (meet[0][1], meet[1][1]))

    # alpha, beta and gamma read exactly off the same closed forms at nu = 4
    t = transition_exponents()
    jumps = " ".join("d%d=%s" % (k, a) if a == b else "d%d=%s(nu>=4)|%s(nu<4)" % (k, a, b)
                     for k, (a, b) in enumerate(zip(t.above, t.below), start=1))
    add("transition_exponents",
        (t.alpha, t.beta, t.gamma, t.m0_squared, t.chi)
        == (-1, Fraction(1, 2), 2, Fraction(18, 25), Fraction(192, 5)),
        "alpha=%s beta=%s gamma=%s; d^k(-log rho)/dnu^k at nu=4: %s; M0^2/(nu-4)->%s "
        "chi*(nu-4)^2->%s" % (t.alpha, t.beta, t.gamma, jumps, t.m0_squared, t.chi))

    # certified radius against the closed form
    ok = True
    details = []
    for nu_q in (Fraction(1, 4), Fraction(5)):
        rep = radius_numeric(IsingParams(nu=nu_q, c=1), tol=Fraction(1, 10 ** 12),
                             with_exponent=False, scan_uniqueness=False)
        lo, hi = rep.rho_interval
        good = lo <= rho_closed_form(nu_q) <= hi  # exact at both points
        ok = ok and good
        details.append("nu=%s:%s" % (nu_q, "ok" if good else "MISMATCH"))
    add("radius_closed_form", ok, " ".join(details))

    # discriminant divisibility by P1^3 P2 P3 with a z-linear quotient
    ok = True
    details = []
    for nu_q in (Fraction(2), Fraction(5)):
        disc = discriminant_in_z(IsingParams(nu=nu_q, c=1))
        p1, p2, p3 = p1_p2_p3(nu_q)
        try:
            q = disc
            for factor in (p1, p1, p1, p2, p3):
                q = q.exact_div(factor)
            good = q.degree() <= 1
        except ComputationError:
            good = False
        ok = ok and good
        details.append("nu=%s:%s" % (nu_q, "ok" if good else "FAIL"))
    add("discriminant_divisibility", ok, " ".join(details))

    # exactly one characteristic root in the physical interval
    ok = True
    count_list = []
    for nu_q in (Fraction(1, 2), Fraction(2), Fraction(5)):
        for c_q in (Fraction(9, 10), Fraction(19, 20), Fraction(1)):
            cp = critical_point(IsingParams(nu=nu_q, c=c_q))
            count = sturm_count(cp.char, Fraction(0), cp.bound)
            ok = ok and count == 1
            count_list.append(count)
    add("sturm_single_root", ok, "counts=%s" % count_list)

    # closed-form observables at rational points
    add("observable_closed_forms",
        m0_closed(4) == 0 and m0_closed(5) == Fraction(45, 67)
        and chi_closed(1) == 1 and chi_closed(4) == mpmath.inf,
        "M0(4)=0 M0(5)=45/67 chi(1)=1 chi(4)=inf")

    # dominant singular exponents
    ok = True
    details = []
    for nu_q, c_q, expected in ((Fraction(4), Fraction(1), Fraction(1, 3)),
                                (Fraction(5), Fraction(1), Fraction(1, 2)),
                                (Fraction(2), Fraction(1), Fraction(1, 2)),
                                (Fraction(2), Fraction(21, 20), Fraction(1, 2))):
        exponent = critical_point(IsingParams(nu=nu_q, c=c_q)).exponent()
        good = exponent == expected
        ok = ok and good
        label = "nu=%s" % nu_q if c_q == 1 else "nu=%s,c=%s" % (nu_q, c_q)
        details.append("%s:%s" % (label, exponent))
    add("singular_exponents", ok, " ".join(details))

    # Puiseux branches by series reversion: exact at (1/4, 1), and three
    # cube-root branches beside the zero branch at (4, 1)
    quarter, cube = (dominant_expansions(IsingParams(nu=Fraction(nu), c=Fraction(1)))[1]
                     for nu in ("1/4", "4"))
    want = [((sign * Fraction(1, 3), Fraction(1, 2)), (Fraction(55, 144), Fraction(1)),
             (sign * Fraction(2975, 13824), Fraction(3, 2))) for sign in (-1, 1)]
    exact_pair = [e.terms for e in quarter] == want
    ramifications = [e.ramification for e in cube]
    add("puiseux_branches",
        exact_pair and ramifications == [1, 3, 3, 3] and cube[0].terms == () and cube[0].exact,
        "nu=1/4:%s nu=4:ramifications=%s" % ("ok" if exact_pair else "MISMATCH", ramifications))

    # the packed Z_n at nu = 1 and the closed form q_n c^(2-n) (c^2 + 1)^(n-1)
    # are Laurent polynomials in c: equal at more points than their span
    ok = True
    for n, zn in enumerate(_symbolic_Z(12)[1:], start=1):
        span = [dc for _, dc in zn.terms] + [2 - n, n]
        ok = ok and all(zn.evaluate(1, c) == nu_one_jets(c, n)[n][0]
                        for c in range(1, max(span) - min(span) + 2))
    add("nu_one_closed_form", ok, "Z_1..Z_12 at nu=1")

    # the brute-force enumeration reproduces the packed Z_6
    found = survey(6)
    add("enumeration_oracle", found.partition_polynomial == _symbolic_Z(12)[6],
        "Z_6 from %d rooted maps" % found.rooted_map_count)
    return checks


def _cmd_check(args, bits):
    checks = _check_battery()
    ok = all(c["ok"] for c in checks)
    return {"ok": ok, "checks": checks}, [], None


_HANDLERS = {
    "coeffs": _cmd_coeffs,
    "enumerate": _cmd_enumerate,
    "radius": _cmd_radius,
    "puiseux": _cmd_puiseux,
    "observables": _cmd_observables,
    "exponent-fit": _cmd_exponent_fit,
    "check": _cmd_check,
}


# ---------------------------------------------------------------------------
# Envelope assembly and entry point
# ---------------------------------------------------------------------------

def _config_dict(args) -> dict:
    """The options of the run's command as parsed, but those left None."""
    out = {}
    for key, value in vars(args).items():
        if key == "command" or value is None:
            continue
        if isinstance(value, Fraction):
            value = str(value)
        elif isinstance(value, tuple):
            value = [str(v) for v in value]
        out[key] = value
    return out


def _emit(text: str, out_path: Optional[str]):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# The options that several commands read, by flag, and each command's help
# line with the shared options it takes, in the order its help lists them.
_SHARED_OPTIONS = {
    "--out": dict(default=None, metavar="PATH"),
    "--precision-bits": dict(type=int, default=None, dest="precision_bits"),
    "--tol": dict(type=parse_rational, default=Fraction(1, 10 ** 12)),
    "--format": dict(choices=("json", "csv"), default="json"),
}
_COMMAND_SPECS = {
    "coeffs": ("partition-function coefficients",
               ("--out", "--precision-bits", "--format")),
    "enumerate": ("exhaustive map enumeration oracle", ("--out",)),
    "radius": ("certified dominant singularity",
               ("--out", "--precision-bits", "--tol", "--format")),
    # puiseux and observables work to a fixed radius tolerance: a weaker one
    # would void F's guarantee, so they take no --tol
    "puiseux": ("fractional-power branches at the singularity",
                ("--out", "--precision-bits")),
    "observables": ("free energy, magnetization, susceptibility",
                    ("--out", "--precision-bits")),
    "exponent-fit": ("coefficient-asymptotics exponent fit",
                     ("--out", "--precision-bits", "--tol")),
    "check": ("run the invariant battery", ("--out",)),
}


def _add_command(sub, command: str) -> None:
    """Add the subparser of one command: its shared options, then its own."""
    help_text, shared = _COMMAND_SPECS[command]
    p = sub.add_parser(command, help=help_text)
    for flag in shared:
        p.add_argument(flag, **_SHARED_OPTIONS[flag])
    if command in ("puiseux", "observables", "exponent-fit"):
        p.add_argument("--nu", type=parse_rational, required=True)
        p.add_argument("--c", type=parse_rational, required=True)
    if command == "coeffs":
        p.add_argument("--n-max", type=int, default=5, dest="n_max")
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--symbolic", action="store_true")
        mode.add_argument("--numeric", action="store_true")
        p.add_argument("--nu", type=parse_rational, default=None)
        p.add_argument("--c", type=parse_rational, default=None)
    elif command == "enumerate":
        p.add_argument("--n", type=int, required=True)
    elif command == "radius":
        p.add_argument("--nu", type=parse_rational_list, required=True)
        p.add_argument("--c", type=parse_rational_list, required=True)
        p.add_argument("--allow-far-field", action="store_true",
                       dest="allow_far_field")
        p.add_argument("--no-exponent", action="store_true", dest="no_exponent")
        p.add_argument("--jobs", type=int, default=1)
    elif command == "puiseux":
        p.add_argument("--max-terms", type=int, default=3, dest="max_terms")
    elif command == "observables":
        p.add_argument("--n", type=int, default=None)
    elif command == "exponent-fit":
        p.add_argument("--n-max", type=int, default=400, dest="n_max")
        p.add_argument("--n-min", type=int, default=None, dest="n_min")


@lru_cache(maxsize=None)
def _build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The argument parser for ``command``, or for every command when it is
    None; built once per process and key, since parse_args returns a fresh
    namespace each call and leaves the parser as it was.

    A call names its command first, so it needs only that subparser: the
    other six cost as much to build as the call's own parsing.  The
    subcommand metavar still lists every command, so usage and help read
    as with all seven; errors that name the command argument (a missing or
    unknown command) come from the full parser, which keeps argparse's own
    metavar and wording.

    Each command takes only the options it reads, so any other is a usage
    error (exit 2).  --precision-bits defaults to None, which main reads as
    DEFAULT_PRECISION_BITS, so that config lists only a precision given."""
    parser = argparse.ArgumentParser(
        prog="isingmaps",
        description="Exact and certified-numeric pipelines for the "
                    "spin-decorated map ensemble.",
    )
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{%s}" % ",".join(COMMANDS))
    for name in COMMANDS if command is None else (command,):
        _add_command(sub, name)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = _build_parser(command).parse_args(argv)
    started = time.time()
    given = getattr(args, "precision_bits", None)
    bits = DEFAULT_PRECISION_BITS if given is None else given
    try:
        if bits < MIN_PRECISION_BITS:
            raise ValueError("--precision-bits must be at least %d bits, got %d"
                             % (MIN_PRECISION_BITS, bits))
        result, warnings, csv_rows = _HANDLERS[args.command](args, bits)
    except ComputationError as exc:
        envelope = {
            "command": args.command,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        _emit(json.dumps(envelope, sort_keys=True, indent=2) + "\n", args.out)
        return 1
    except ValueError as exc:
        # name the option only where the command has it
        hint = "; pass --allow-far-field to proceed anyway" \
            if isinstance(exc, FarField) and hasattr(args, "allow_far_field") else ""
        envelope = {
            "command": args.command,
            "error": {"type": "UsageError", "message": str(exc) + hint},
        }
        _emit(json.dumps(envelope, sort_keys=True, indent=2) + "\n", args.out)
        return 2

    if getattr(args, "format", "json") == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows(csv_rows)
        _emit(buf.getvalue(), args.out)
        return 0

    envelope = {
        "command": args.command,
        "config": _config_dict(args),
        "result": result,
        "meta": {
            "precision_bits": bits,
            "warnings": sorted(set(warnings)),
            "elapsed_seconds": round(time.time() - started, 6),
        },
    }
    _emit(json.dumps(envelope, sort_keys=True, indent=2) + "\n", args.out)
    if args.command == "check" and not result["ok"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
