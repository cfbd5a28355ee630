"""Check one CLI operation's JSON envelope against the stored references.

This module does not import the package: it works on the printed output
with exact rationals and mpmath, so a defect in the timed code cannot hide
in the checker.  Each output is held to the accuracy the package promises
for it:

* certified intervals must meet the reference enclosure, and be no wider
  than the requested tolerance;
* audited series values (exponent-fit) must agree to p/2 bits, where p is
  ``meta.precision_bits``; the fit is recomputed from reference Z_n and the
  printed mu;
* finite-difference M and chi must agree to their 1e-3 tolerance, relative
  to max(1, |reference|); the number of correct printed digits of M is
  returned as a measurement, not judged;
* exact rationals (finite-size M_n and chi_n, symbolic coefficients,
  enumeration counts) must be equal.
"""
from __future__ import annotations

import json
import math
import pathlib
from fractions import Fraction
from typing import Dict, NamedTuple, Optional, Sequence

import jsonschema
import mpmath

REFS_PATH = pathlib.Path(__file__).resolve().parent / "refs.json"

DEFAULT_TOL = Fraction(1, 10 ** 12)   # the CLI's --tol default
THERMO_RADIUS_TOL = Fraction(1, 10 ** 28)  # critical._RADIUS_TOL
FD_TOL = Fraction(1, 1000)  # the finite-difference estimators' tol
PRINT_SLACK = Fraction(1, 10 ** 50)  # relative rounding of a printed decimal


class Outcome(NamedTuple):
    ok: bool
    known_defect: bool
    reason: str
    m_digits: Optional[float] = None


class Mismatch(Exception):
    """An output misses its reference."""


def load_refs(path: pathlib.Path = REFS_PATH) -> dict:
    return json.loads(path.read_text())


def options(argv: Sequence[str]) -> Dict[str, object]:
    """{"command": ..., "--nu": "2", "--symbolic": True, ...} from a CLI argv."""
    out: Dict[str, object] = {"command": argv[0]}
    i = 1
    while i < len(argv):
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[argv[i]] = argv[i + 1]
            i += 2
        else:
            out[argv[i]] = True
            i += 1
    return out


def parse_poly(text: str) -> Dict[tuple, Fraction]:
    """{(deg_nu, deg_c): coefficient} from a printed polynomial in nu and c."""
    terms: Dict[tuple, Fraction] = {}
    text = text.strip()
    if text == "0":
        return terms
    for piece in text.replace(" - ", " + -").split(" + "):
        sign = -1 if piece.startswith("-") else 1
        coef, dn, dc = Fraction(sign), 0, 0
        for factor in piece.lstrip("-").split("*"):
            name, _, power = factor.partition("^")
            if name == "nu":
                dn += int(power or 1)
            elif name == "c":
                dc += int(power or 1)
            else:
                coef *= Fraction(factor)
        terms[(dn, dc)] = terms.get((dn, dc), Fraction(0)) + coef
    return {k: v for k, v in terms.items() if v}


def _num(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise Mismatch("not a number: %r" % (text,))


def _meets(printed: Sequence[str], ref: Sequence[str], scale: Fraction = Fraction(1),
           name: str = "interval"):
    """The printed interval, widened by its rounding, meets scale * ref."""
    lo, hi = _num(printed[0]), _num(printed[1])
    slack = max(abs(lo), abs(hi)) * PRINT_SLACK
    r_lo, r_hi = scale * _num(ref[0]), scale * _num(ref[1])
    if lo > hi or lo - slack > r_hi or r_lo > hi + slack:
        raise Mismatch("%s [%s, %s] misses the reference [%s, %s]"
                       % (name, printed[0], printed[1], float(r_lo), float(r_hi)))
    return lo, hi


def _agree(name: str, printed: str, ref: Fraction, bits: int):
    """The printed value agrees with ref to bits/2 bits, relative to max(1, |ref|)."""
    if abs(_num(printed) - ref) > max(1, abs(ref)) * Fraction(1, 2 ** (bits // 2)):
        raise Mismatch("%s = %s disagrees with the reference %.17g beyond %d bits"
                       % (name, printed, float(ref), bits // 2))


def _mpf_fraction(x) -> Fraction:
    man, exp = mpmath.mpf(x).man_exp
    return Fraction(man) * Fraction(2) ** exp


def recompute_fit(zs: Sequence[str], n_min: int, mu: Fraction,
                  bits: int) -> Dict[str, Fraction]:
    """The least-squares and Aitken exponent fit of log(Z_n mu^n) on log n."""
    with mpmath.workprec(bits):
        log_mu = mpmath.log(mpmath.mpf(mu.numerator) / mu.denominator)
        ys = [mpmath.log(mpmath.mpf(z)) + n * log_mu for n, z in enumerate(zs, n_min)]
        xs = [mpmath.log(n) for n in range(n_min, n_min + len(zs))]
        count = len(xs)
        sx, sy = mpmath.fsum(xs), mpmath.fsum(ys)
        sxx = mpmath.fsum(x * x for x in xs)
        sxy = mpmath.fsum(x * y for x, y in zip(xs, ys))
        slope = (count * sxy - sx * sy) / (count * sxx - sx * sx)
        intercept = (sy - slope * sx) / count
        residual = mpmath.sqrt(mpmath.fsum(
            (y - intercept - slope * x) ** 2 for x, y in zip(xs, ys)) / count)
        alphas = [-(ys[i] - ys[i - 1]) / (xs[i] - xs[i - 1]) for i in range(1, count)]
        a0, a1, a2 = alphas[-3:]
        dd = a2 - 2 * a1 + a0
        aitken = a2 - (a2 - a1) ** 2 / dd if abs(dd) > mpmath.mpf(2) ** (-bits // 2) else a2
        values = {"alpha_exponent": -slope, "amplitude": mpmath.exp(intercept),
                  "residual": residual, "aitken_exponent": aitken}
        return {k: _mpf_fraction(v) for k, v in values.items()}


class Checker:
    """Validates envelopes against the output schema and the references."""

    def __init__(self, refs: dict, schema: dict):
        self.refs = refs
        self.validator = jsonschema.Draft7Validator(schema)

    def known_defect(self, argv: Sequence[str]) -> Optional[str]:
        opts = options(argv)
        if opts["command"] != "observables" or "--n" in opts:
            return None
        entry = self.refs["thermo"].get("%s %s" % (opts.get("--nu"), opts.get("--c")))
        return entry and entry.get("known_defect")

    def check(self, argv: Sequence[str], code, stdout: str,
              error: Optional[str] = None) -> Outcome:
        if error:
            return Outcome(False, False, "raised " + error)
        try:
            envelope = json.loads(stdout)
        except ValueError:
            return Outcome(False, False, "output is not JSON")
        problem = next(iter(self.validator.iter_errors(envelope)), None)
        if problem is not None:
            return Outcome(False, False, "schema: " + problem.message)
        if code != 0 or "error" in envelope:
            kind = envelope.get("error", {}).get("type")
            known = self.known_defect(argv)
            if known and kind == known:
                return Outcome(False, True, "known defect: " + kind)
            return Outcome(False, False, "exit code %s (%s)" % (code, kind))
        opts = options(argv)
        bits = envelope["meta"]["precision_bits"]
        try:
            digits = self._dispatch(opts)(opts, envelope["result"], bits)
        except Mismatch as exc:
            return Outcome(False, False, str(exc))
        except (KeyError, TypeError, IndexError) as exc:
            return Outcome(False, False, "malformed or unreferenced output: %r" % (exc,))
        return Outcome(True, False, "", digits)

    def _dispatch(self, opts):
        command = opts["command"]
        if command == "observables":
            return self._finite if "--n" in opts else self._thermo
        return {"radius": self._radius, "exponent-fit": self._fit,
                "coeffs": self._coeffs, "enumerate": self._enumerate}[command]

    # -- per-command checks --------------------------------------------

    def _radius(self, opts, result, bits):
        c = Fraction(opts["--c"])
        ref = self.refs["radius"]["%s %s" % (opts["--nu"], opts["--c"])]
        if result["exact"]:
            if ref["rho"]["exact"] is None or _num(result["rho"]) != Fraction(ref["rho"]["exact"]):
                raise Mismatch("exact rho %s differs from the closed form %s"
                               % (result["rho"], ref["rho"]["exact"]))
        else:
            lo, hi = _num(result["rho_interval"][0]), _num(result["rho_interval"][1])
            if hi - lo > DEFAULT_TOL * (1 + PRINT_SLACK) + 2 * hi * PRINT_SLACK:
                raise Mismatch("rho interval wider than tol")
            rho = _num(result["rho"])
            if not lo - hi * PRINT_SLACK <= rho <= hi + hi * PRINT_SLACK:
                raise Mismatch("rho outside its own interval")
        _meets(result["rho_interval"], ref["rho"]["interval"], name="rho")
        _meets(result["mu_interval"], ref["rho"]["interval"], c, name="mu")
        _meets(result["s_interval"], ref["s"]["interval"], name="s")
        if result["exponent"] != ref["exponent"]:
            raise Mismatch("exponent %s, expected %s" % (result["exponent"], ref["exponent"]))

    def _fit(self, opts, result, bits):
        key = "%s %s" % (opts["--nu"], opts["--c"])
        c = Fraction(opts["--c"])
        rho_ref, fit_ref = self.refs["radius"][key]["rho"], self.refs["fit"][key]
        mu = _num(result["mu"])
        if result["mu_exact"]:
            if rho_ref["exact"] is None or mu != c * Fraction(rho_ref["exact"]):
                raise Mismatch("exact mu %s differs from the closed form" % result["mu"])
        else:
            lo = c * (_num(rho_ref["interval"][0]) - DEFAULT_TOL)
            hi = c * (_num(rho_ref["interval"][1]) + DEFAULT_TOL)
            if not lo <= mu <= hi:
                raise Mismatch("mu %s is farther than tol from the reference" % result["mu"])
        n_max = int(opts["--n-max"])
        if result["n_range"] != [fit_ref["n_min"], n_max]:
            raise Mismatch("n_range %s, expected %s" % (result["n_range"],
                                                        [fit_ref["n_min"], n_max]))
        expected = recompute_fit(fit_ref["z"], fit_ref["n_min"], mu, bits)
        for name, value in expected.items():
            _agree(name, result[name], value, bits)

    def _thermo(self, opts, result, bits):
        key = "%s %s" % (opts["--nu"], opts["--c"])
        ref = self.refs["thermo"][key]
        rho_lo = _num(self.refs["radius"][key]["rho"]["interval"][0])
        f_err = abs(_num(result["F"]) - _num(ref["F"]))
        if f_err > 2 * THERMO_RADIUS_TOL / rho_lo + abs(_num(ref["F"])) * PRINT_SLACK:
            raise Mismatch("F = %s is off by %.3g" % (result["F"], float(f_err)))
        for name in ("M", "chi"):
            value, expect = _num(result[name]), _num(ref[name])
            if abs(value - expect) > FD_TOL * max(1, abs(expect)):
                raise Mismatch("%s = %s misses the reference %s beyond the 1e-3 tolerance"
                               % (name, result[name], ref[name]))
        err = max(abs(_num(result["M"]) - _num(ref["M"])), Fraction(1, 10 ** 60))
        return -math.log10(float(err / abs(_num(ref["M"]))))

    def _finite(self, opts, result, bits):
        ref = self.refs["finite"]["%s %s %s" % (opts["--nu"], opts["--c"], opts["--n"])]
        if result["n"] != int(opts["--n"]):
            raise Mismatch("n = %s, expected %s" % (result["n"], opts["--n"]))
        _agree("F", result["F"], _num(ref["F"]), bits)
        for name in ("M", "chi"):
            if _num(result[name]) != Fraction(ref[name]):
                raise Mismatch("%s = %s, expected exactly %s" % (name, result[name], ref[name]))

    def _coeffs(self, opts, result, bits):
        ref = self.refs["symbolic"]
        rows = result["coefficients"]
        n_max = int(opts["--n-max"])
        if [row["n"] for row in rows] != list(range(1, n_max + 1)):
            raise Mismatch("rows are not n = 1..%d" % n_max)
        points = [(Fraction(nu), Fraction(c)) for nu, c in ref["check_points"]]
        for row in rows:
            terms = parse_poly(row["value"])
            for (nu, c), expect in zip(points, ref["values"][str(row["n"])]):
                value = sum((coef * nu ** dn * c ** dc for (dn, dc), coef in terms.items()),
                            Fraction(0))
                if value != Fraction(expect):
                    raise Mismatch("Z_%d misses its exact value at nu=%s, c=%s"
                                   % (row["n"], nu, c))

    def _enumerate(self, opts, result, bits):
        ref = self.refs["enumerate"][opts["--n"]]
        expect = {(dn, dc): Fraction(v) for dn, dc, v in ref["terms"]}
        if parse_poly(result["partition_polynomial"]) != expect:
            raise Mismatch("partition polynomial differs from symbolic Z_%s" % opts["--n"])
        for name in ("maps", "total_matchings", "planar_matchings"):
            if result[name] != ref[name]:
                raise Mismatch("%s = %s, expected %s" % (name, result[name], ref[name]))
        if not ref["planar_matchings"] <= result["connected_matchings"] <= ref["total_matchings"]:
            raise Mismatch("connected_matchings outside [planar, total]")
