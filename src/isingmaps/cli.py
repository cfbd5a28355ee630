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
from typing import List, Optional, Sequence, Tuple

import mpmath

from .critical import (
    FIT_GUARD_BITS,
    _symbolic_Z,
    chi_closed,
    exponent_fit,
    finite_free_energy,
    finite_magnetization,
    finite_susceptibility,
    free_energy,
    m0_closed,
    thermo_enclosures,
)
from .errors import ComputationError
from .exactalg import sturm_count
from .mapcount import survey
from .precision import DEFAULT_PRECISION_BITS, MIN_PRECISION_BITS
from .series import IsingParams, coefficient_sequence, exact_Z, nu_one_jets, solve_Z
from .singular import (
    critical_point,
    discriminant_in_z,
    dominant_expansions,
    p1_p2_p3,
    radius_numeric,
    rho_closed_form,
    s_at_rho_closed_form,
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

    The midpoint is rounded to 1, 2, ... significant digits until the
    rounding lies in [lo, hi].  When lo < hi the midpoint is interior, so
    this ends.  Ends one ulp apart at b significant bits are wider than
    |mid| 2^-b, so ceil(b log10 2) + 1 digits suffice for them: 59 at
    b = 192, where dps is 55.  A point enclosure prints to at most dps + 3
    digits.

    The digit count is found over the integers.  With 10^e <= |mid| <
    10^(e+1), d digits round x = |mid| 10^(d-1-e) to an integer; the
    fraction part r/b of x is carried by long division, one decimal digit
    per step.  The rounding moves x by min(r, b - r)/b (at a tie either
    way, so half-even's choice does not matter), and as mid is the centre
    of [lo, hi] it lies inside when that is at most (hi - lo)/2 times
    10^(d-1-e), compared by cross-multiplying.  One Decimal division at the
    digit count found, correctly rounded half-even, gives the value to print.
    """
    if lo > hi:
        raise ValueError("empty enclosure: lo > hi")
    mid = Fraction(lo + hi, 2)
    num, den = mid.numerator, mid.denominator
    digits = 1
    if num:
        half = Fraction(hi - lo, 2)
        h_num, h_den = half.numerator, half.denominator
        mag = abs(num)
        e = len(str(mag)) - len(str(den))  # floor(log10 |mid|) is e or e - 1
        if (mag * 10 ** -e if e < 0 else mag) < (den * 10 ** e if e > 0 else den):
            e -= 1
        # at one digit x = |mid| 10^-e has fraction part r/b, and the bound
        # half 10^-e on the rounding error is slack / (h_den b)
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


# ---------------------------------------------------------------------------
# Command implementations.  Each returns (result, warnings, csv_rows) where
# csv_rows is None for the commands that take no --format.
# ---------------------------------------------------------------------------

def _cmd_coeffs(args, bits):
    n_max = args.n_max
    if n_max < 1:
        raise ValueError("--n-max must be at least 1")
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


def _radius_point(nu: Fraction, c: Fraction, tol: Fraction, allow_far_field: bool,
                  with_exponent: bool, dps: int) -> dict:
    report = radius_numeric(
        IsingParams(nu=nu, c=c), tol=tol, allow_far_field=allow_far_field,
        with_exponent=with_exponent,
    )

    def enc(value: Fraction) -> str:
        # exact singularities stay rational; certified midpoints are decimals
        if report.exact:
            return str(value)
        with mpmath.workprec(int(dps * 3.33) + 8):
            return mpmath.nstr(mpmath.mpf(value.numerator) / value.denominator,
                               dps)

    return {
        "nu": str(nu),
        "c": str(c),
        "rho": enc(report.rho),
        "rho_interval": [enc(report.rho_interval[0]), enc(report.rho_interval[1])],
        "mu": enc(report.mu),
        "mu_interval": [enc(report.mu_interval[0]), enc(report.mu_interval[1])],
        "s_at_rho": enc(report.s_at_rho),
        "s_interval": [enc(report.s_interval[0]), enc(report.s_interval[1])],
        "exponent": None if report.exponent is None else str(report.exponent),
        "exact": report.exact,
        "unique_on_circle": report.uniqueness_checked,
        "warnings": list(report.warnings),
    }


def _radius_worker(spec):
    nu, c, tol, allow, with_exp, dps = spec
    return _radius_point(nu, c, tol, allow, with_exp, dps)


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
            points = list(pool.map(_radius_worker, specs))
    else:
        points = [_radius_worker(spec) for spec in specs]
    warnings = [w for p in points for w in p["warnings"]]
    csv_rows = [("nu", "c", "rho", "mu", "exponent")] + [
        (p["nu"], p["c"], p["rho"], p["mu"], p["exponent"] or "") for p in points
    ]
    if len(points) == 1:
        return points[0], warnings, csv_rows
    return {"points": points}, warnings, csv_rows


def _cmd_puiseux(args, bits):
    dps = _digits(bits)
    params = IsingParams(nu=args.nu, c=args.c)
    report, expansions = dominant_expansions(
        params, max_terms=args.max_terms, precision_bits=bits
    )
    branches = []
    for exp in expansions:
        terms = [{"exponent": str(e), "coefficient": format_value(coef, dps)}
                 for coef, e in exp.terms]
        lead = exp.leading_exponent()
        branches.append({
            "leading_exponent": None if lead is None else str(lead),
            "ramification": exp.ramification,
            "exact": exp.exact,
            "terms": terms,
        })
    result = {
        "rho": format_value(report.rho, dps),
        "s_at_rho": format_value(report.s_at_rho, dps),
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
    params = IsingParams(nu=args.nu, c=args.c)
    # Z_n carry the fit's guard bits too, so every printed digit is right
    seq = coefficient_sequence(params, args.n_max, bits + FIT_GUARD_BITS)
    report = radius_numeric(params, tol=args.tol, with_exponent=False,
                            scan_uniqueness=False)
    fit = exponent_fit(seq, report.mu, (n_min, args.n_max), precision_bits=bits)
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

    # the two closed-form branches agree at the critical coupling: the nu >= 4
    # branch is exact there, and the nu < 4 branch, taken where sqrt(nu) is
    # rational just below 4, is within O(h) of it
    h = Fraction(1, 10 ** 9)
    rho4, s4 = rho_closed_form(4), s_at_rho_closed_form(4)
    gap = max(abs(rho_closed_form((2 - h) ** 2) - rho4),
              abs(s_at_rho_closed_form((2 - h) ** 2) - s4))
    add("branch_continuity",
        rho4 == Fraction(2, 405) and s4 == Fraction(1, 45) and gap < h,
        "rho=%s s=%s gap=%.3g" % (rho4, s4, float(gap)))

    # certified radius against the closed form
    ok = True
    details = []
    for nu_q in (Fraction(1, 4), Fraction(5)):
        rep = radius_numeric(IsingParams(nu=nu_q, c=1), tol=Fraction(1, 10 ** 12),
                             with_exponent=False, scan_uniqueness=False)
        closed = rho_closed_form(nu_q)
        lo, hi = rep.rho_interval
        good = lo - Fraction(1, 10 ** 10) <= closed <= hi + Fraction(1, 10 ** 10)
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

    # the packed Z_n at nu = 1 and the closed form q_n c^(2-n) (c^2 + 1)^(n-1)
    # are Laurent polynomials in c: equal at more points than their span
    ok = True
    for n, zn in enumerate(_symbolic_Z(12)[1:], start=1):
        span = [dc for _, dc in zn.terms] + [2 - n, n]
        ok = ok and all(zn.evaluate(1, c) == nu_one_jets(c, n)[n][0]
                        for c in range(1, max(span) - min(span) + 2))
    add("nu_one_closed_form", ok, "Z_1..Z_12 at nu=1")
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
    out = {}
    for key in ("nu", "c", "n", "n_max", "n_min", "max_terms", "tol",
                "precision_bits", "format", "out", "jobs", "symbolic",
                "numeric", "allow_far_field", "no_exponent"):
        if not hasattr(args, key):
            continue
        value = getattr(args, key)
        if value is None:
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


def _option(*flags, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one option, for the commands that read it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args returns a
    fresh namespace each call and leaves the parser as it was.

    Each command takes only the options it reads, so any other is a usage
    error (exit 2).  --precision-bits defaults to None, which main reads as
    DEFAULT_PRECISION_BITS, so that config lists only a precision given."""
    out = _option("--out", default=None, metavar="PATH")
    bits = _option("--precision-bits", type=int, default=None, dest="precision_bits")
    tol = _option("--tol", type=parse_rational, default=Fraction(1, 10 ** 12))
    table = _option("--format", choices=("json", "csv"), default="json")

    parser = argparse.ArgumentParser(
        prog="isingmaps",
        description="Exact and certified-numeric pipelines for the "
                    "spin-decorated map ensemble.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", parents=[out, bits, table],
                       help="partition-function coefficients")
    p.add_argument("--n-max", type=int, default=5, dest="n_max")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--symbolic", action="store_true")
    mode.add_argument("--numeric", action="store_true")
    p.add_argument("--nu", type=parse_rational, default=None)
    p.add_argument("--c", type=parse_rational, default=None)

    p = sub.add_parser("enumerate", parents=[out],
                       help="exhaustive map enumeration oracle")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("radius", parents=[out, bits, tol, table],
                       help="certified dominant singularity")
    p.add_argument("--nu", type=parse_rational_list, required=True)
    p.add_argument("--c", type=parse_rational_list, required=True)
    p.add_argument("--allow-far-field", action="store_true",
                   dest="allow_far_field")
    p.add_argument("--no-exponent", action="store_true", dest="no_exponent")
    p.add_argument("--jobs", type=int, default=1)

    # puiseux and observables work to a fixed radius tolerance: a weaker one
    # would void F's guarantee, so they take no --tol
    p = sub.add_parser("puiseux", parents=[out, bits],
                       help="fractional-power branches at the singularity")
    p.add_argument("--nu", type=parse_rational, required=True)
    p.add_argument("--c", type=parse_rational, required=True)
    p.add_argument("--max-terms", type=int, default=3, dest="max_terms")

    p = sub.add_parser("observables", parents=[out, bits],
                       help="free energy, magnetization, susceptibility")
    p.add_argument("--nu", type=parse_rational, required=True)
    p.add_argument("--c", type=parse_rational, required=True)
    p.add_argument("--n", type=int, default=None)

    p = sub.add_parser("exponent-fit", parents=[out, bits, tol],
                       help="coefficient-asymptotics exponent fit")
    p.add_argument("--nu", type=parse_rational, required=True)
    p.add_argument("--c", type=parse_rational, required=True)
    p.add_argument("--n-max", type=int, default=400, dest="n_max")
    p.add_argument("--n-min", type=int, default=None, dest="n_min")

    sub.add_parser("check", parents=[out], help="run the invariant battery")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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
        envelope = {
            "command": args.command,
            "error": {"type": "UsageError", "message": str(exc)},
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
