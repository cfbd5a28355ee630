"""End-to-end tests of the command-line interface."""
import concurrent.futures
import decimal
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
from fractions import Fraction

import jsonschema
import mpmath
import pytest
from mpmath.libmp import from_rational, round_nearest

from isingmaps import cli
from isingmaps.cli import main, parse_rational
from isingmaps.critical import exponent_fit, thermo_enclosures
from isingmaps.exactalg import PP_ONE, PP_ZERO
from isingmaps.series import (
    IsingParams, TruncatedSeries, _Model, _series_powers, _solve_Z_ring, _symbolic_tables,
)
from isingmaps.singular import rho_closed_form

SCHEMA_PATH = pathlib.Path(__file__).resolve().parent.parent / "schemas" / "output.schema.json"
SCHEMA = json.loads(SCHEMA_PATH.read_text())
GOLDEN = json.loads((pathlib.Path(__file__).resolve().parent
                     / "golden_envelopes.json").read_text())

# The options each command reads; every other shared option is a usage error.
# Beyond the shared ones: coeffs --n-max --symbolic --numeric --nu --c,
# enumerate --n, radius --nu --c --allow-far-field --no-exponent,
# puiseux --nu --c --max-terms, observables --nu --c --n,
# exponent-fit --nu --c --n-max --n-min.
SHARED_OPTIONS = {"--out": "o.json", "--precision-bits": "64", "--tol": "1/1000",
                  "--jobs": "2", "--format": "csv"}
TAKES = {
    "coeffs": ("--out", "--precision-bits", "--format"),
    "enumerate": ("--out",),
    "radius": ("--out", "--precision-bits", "--tol", "--jobs", "--format"),
    "puiseux": ("--out", "--precision-bits"),
    "observables": ("--out", "--precision-bits"),
    "exponent-fit": ("--out", "--precision-bits", "--tol"),
    "check": ("--out",),
}
MINIMAL_ARGS = {
    "coeffs": ("--symbolic",), "enumerate": ("--n", "5"),
    "radius": ("--nu", "2", "--c", "1"), "puiseux": ("--nu", "2", "--c", "1"),
    "observables": ("--nu", "2", "--c", "21/20"),
    "exponent-fit": ("--nu", "2", "--c", "1"), "check": (),
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload


def param_poly_Z(order):
    """Z_1..Z_order as ParamPoly from TruncatedSeries arithmetic over ParamPoly
    alone, not the engine's packed pass: S by Lagrange inversion of
    z = S / phi(S), phi = D^2 / N, then the bracket at S over 1 + e1 S,
    divided exactly by 9(1 - nu^2) and shifted by c^-n."""
    n_tab, d_tab, bracket_tab, e1, nine_gamma = _symbolic_tables()
    top = order + 2

    def series(tab):
        return TruncatedSeries([tab.get(k, PP_ZERO) for k in range(top + 1)], PP_ZERO)

    d = series(d_tab)
    phi = (d * d).divide(series(n_tab))
    s, power = [PP_ZERO], phi
    for n in range(1, top + 1):
        s.append(power.coefficient(n - 1) * Fraction(1, n))
        power = power * phi
    s = TruncatedSeries(s, PP_ZERO)
    one = TruncatedSeries([PP_ONE] + [PP_ZERO] * top, PP_ZERO)
    pw = _series_powers(s, 7)
    pw[0] = one
    w = TruncatedSeries([PP_ZERO] * (top + 1), PP_ZERO)
    for (i, j), coef in bracket_tab.items():
        w = w + pw[i].shift_up(j).scale(coef)
    g = w.divide(one + s.scale(e1))
    return [g.coefficient(n + 2).exact_div(nine_gamma).shift_c(-n)
            for n in range(1, order + 1)]


class TestParsing:
    def test_rational_forms(self):
        from fractions import Fraction
        assert parse_rational("2/405") == Fraction(2, 405)
        assert parse_rational("1.05") == Fraction(21, 20)
        assert parse_rational("4") == 4

    def test_rejects_garbage(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            parse_rational("4.0.5")

    def test_grid_forms(self):
        from isingmaps.cli import parse_rational_list
        assert parse_rational_list("1/2,4") == (Fraction(1, 2), Fraction(4))
        assert parse_rational_list("1/2:6:12") == tuple(
            Fraction(1, 2) + Fraction(k, 2) for k in range(12))
        assert parse_rational_list("1:0:3") == (1, Fraction(1, 2), 0)
        assert parse_rational_list("3/4:0.75:1") == (Fraction(3, 4),)
        assert parse_rational_list("1:2:2,5") == (1, 2, 5)

    @pytest.mark.parametrize("text", [
        "1:2", "1:2:3:4", "1:2:0", "1:2:-1", "1:2:1", "1:2:x", "1:2:2.5",
        "1:2:", "a:2:3", "1:2:3/1",
    ])
    def test_rejects_malformed_grids(self, text):
        import argparse
        from isingmaps.cli import parse_rational_list
        with pytest.raises(argparse.ArgumentTypeError):
            parse_rational_list(text)

    def test_radius_grid_is_a_usage_error_when_malformed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["radius", "--nu", "1:2:1", "--c", "1"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["radius", "--bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, option", [
        (command, option) for command in cli.COMMANDS for option in SHARED_OPTIONS
        if option not in TAKES[command]])
    def test_unread_option_exits_2(self, capsys, monkeypatch, command, option):
        # refused while parsing, before the command computes anything
        monkeypatch.setitem(cli._HANDLERS, command, None)
        with pytest.raises(SystemExit) as exc:
            main([command, *MINIMAL_ARGS[command], option, SHARED_OPTIONS[option]])
        assert exc.value.code == 2
        assert "unrecognized arguments: %s" % option in capsys.readouterr().err

    def test_each_command_takes_the_options_it_reads(self):
        parser = cli._build_parser()
        commands = parser._subparsers._group_actions[0].choices
        slots = 0
        for command, options in TAKES.items():
            flags = {flag for action in commands[command]._actions
                     for flag in action.option_strings} - {"-h", "--help"}
            assert flags & set(SHARED_OPTIONS) == set(options), command
            slots += len(flags)
            args = parser.parse_args([command, *MINIMAL_ARGS[command], *(
                arg for option in options for arg in (option, SHARED_OPTIONS[option]))])
            assert args.command == command
        assert slots == 37


class TestCoeffs:
    def test_symbolic_printed_expansion(self, capsys):
        code, payload = run_json(capsys, "coeffs", "--symbolic", "--n-max", "3")
        assert code == 0
        rows = payload["result"]["coefficients"]
        assert rows[0]["value"] == "2*nu^2*c"
        assert rows[1]["value"] == "9*nu^4*c^2 + 8*nu^2 + 1"
        assert rows[2]["n"] == 3

    def test_exact_point_evaluation(self, capsys):
        code, payload = run_json(capsys, "coeffs", "--nu", "2", "--c", "1",
                                 "--n-max", "5")
        assert code == 0
        rows = payload["result"]["coefficients"]
        assert rows[1]["value"] == "177"

    @pytest.mark.parametrize("c", ["9/10", "21/20"])
    def test_numeric_rows_at_nu_one_round_the_exact_rows(self, capsys, c):
        _, exact = run_json(capsys, "coeffs", "--nu", "1", "--c", c, "--n-max", "24")
        code, payload = run_json(capsys, "coeffs", "--nu", "1", "--c", c, "--numeric",
                                 "--n-max", "24")
        assert code == 0
        bits = payload["meta"]["precision_bits"]
        with mpmath.workprec(bits):
            want = [mpmath.nstr(mpmath.mpf(from_rational(
                        q.numerator, q.denominator, bits, round_nearest)), cli._digits(bits))
                    for q in (Fraction(row["value"]) for row in exact["result"]["coefficients"])]
        assert [row["value"] for row in payload["result"]["coefficients"]] == want

    def test_csv_sequence(self, capsys):
        code, out = run_cli(capsys, "coeffs", "--nu", "2", "--c", "1",
                            "--n-max", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,value"
        assert lines[1] == "1,8"
        assert lines[2] == "2,177"


    def test_point_rows_equal_the_symbolic_polynomials_at_the_point(self, capsys):
        nu, c = Fraction(3, 2), Fraction(21, 20)
        code, payload = run_json(capsys, "coeffs", "--nu", "3/2", "--c", "21/20",
                                 "--n-max", "12")
        assert code == 0
        exact = _solve_Z_ring(_Model(IsingParams(nu=nu, c=c), "exact"), 12)
        assert [row["value"] for row in payload["result"]["coefficients"]] == \
            [str(exact[n]) for n in range(1, 13)]

    def test_point_rows_at_nu_one(self, capsys):
        code, payload = run_json(capsys, "coeffs", "--nu", "1", "--c", "9/10",
                                 "--n-max", "4")
        assert code == 0
        reference = param_poly_Z(4)
        assert [row["value"] for row in payload["result"]["coefficients"]] == \
            [str(z.evaluate(1, Fraction(9, 10))) for z in reference]

    def test_symbolic_and_numeric_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["coeffs", "--symbolic", "--numeric", "--nu", "3", "--c", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("point", [("--nu", "3"), ("--c", "2"), ("--nu", "3", "--c", "2")])
    def test_symbolic_takes_no_point(self, capsys, point):
        code, payload = run_json(capsys, "coeffs", "--symbolic", *point)
        assert code == 2
        assert payload["error"] == {"type": "UsageError",
                                    "message": "--symbolic takes no --nu or --c"}

    def test_point_rows_refuse_nonpositive_weights(self, capsys):
        code, payload = run_json(capsys, "coeffs", "--nu", "0", "--c", "1")
        assert code == 2
        assert "positive" in payload["error"]["message"]


class TestEnumerate:
    def test_single_vertex(self, capsys):
        code, payload = run_json(capsys, "enumerate", "--n", "1")
        assert code == 0
        result = payload["result"]
        assert result["partition_polynomial"] == "2*nu^2*c"
        assert result["maps"] == 2

    def test_matches_series_solver(self, capsys):
        code, payload = run_json(capsys, "enumerate", "--n", "3")
        brute = payload["result"]["partition_polynomial"]
        _, coeffs = run_json(capsys, "coeffs", "--symbolic", "--n-max", "3")
        assert brute == coeffs["result"]["coefficients"][2]["value"]

    def test_size_bound(self, capsys):
        code, payload = run_json(capsys, "enumerate", "--n", "6")
        assert code == 1
        assert payload["error"]["type"] == "EnumerationBound"


class TestRadius:
    def test_critical_point_exact(self, capsys):
        code, payload = run_json(capsys, "radius", "--nu", "4", "--c", "1")
        assert code == 0
        result = payload["result"]
        assert result["rho"] == "2/405"
        assert result["mu"] == "2/405"
        assert result["s_at_rho"] == "1/45"
        assert result["exponent"] == "1/3"
        assert result["exact"] is True

    def test_grid_sweep_equals_the_explicit_list(self, capsys):
        args = ("--c", "1", "--format", "csv", "--no-exponent")
        _, grid = run_cli(capsys, "radius", "--nu", "1/4:5:3", *args)
        _, listed = run_cli(capsys, "radius", "--nu", "1/4,21/8,5", *args)
        assert grid == listed
        assert len(grid.strip().splitlines()) == 4

    def test_sweep_csv_columns(self, capsys):
        code, out = run_cli(capsys, "radius", "--nu", "1/4,5", "--c", "1",
                            "--format", "csv", "--no-exponent")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "nu,c,rho,mu,exponent"
        assert lines[1].startswith("1/4,1,256/2025,256/2025")
        assert lines[2].startswith("5,1,67/20736,67/20736")

    def test_parallel_sweep_is_deterministic(self, capsys):
        args = ("radius", "--nu", "1/4,5", "--c", "1,19/20", "--no-exponent")
        _, serial = run_cli(capsys, *args, "--jobs", "1")
        _, parallel = run_cli(capsys, *args, "--jobs", "2")
        strip = lambda text: re.sub(r'"elapsed_seconds": [0-9.e-]+', "", text)
        assert strip(serial) == strip(parallel).replace('"jobs": 2', '"jobs": 1')

    def test_jobs_clamped_to_points_and_cpus(self, capsys, monkeypatch):
        seen = []

        class RecordingPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        for nus, expected in (("1/4,5", 2), ("1/4,2,4,5", 3)):
            code, _ = run_cli(capsys, "radius", "--nu", nus, "--c", "1",
                              "--no-exponent", "--jobs", "1000000")
            assert code == 0
            assert seen.pop() == expected
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        code, _ = run_cli(capsys, "radius", "--nu", "1/4,5", "--c", "1",
                          "--no-exponent", "--jobs", "4")
        assert code == 0 and seen == []

    def test_jobs_below_one_is_a_usage_error(self, capsys):
        code, payload = run_json(capsys, "radius", "--nu", "4", "--c", "1", "--jobs", "0")
        assert code == 2
        assert payload["error"] == {"type": "UsageError",
                                    "message": "--jobs must be at least 1"}

    def test_parser_reused_across_calls(self, capsys):
        # one process, two calls on the one cached parser, against a fresh
        # process per call: the first call's --tol must not carry over
        calls = (["radius", "--nu", "2", "--c", "21/20", "--tol", "1/1000000"],
                 ["radius", "--nu", "2", "--c", "21/20"])
        src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        for argv in calls:
            code, in_process = run_json(capsys, *argv)
            fresh = subprocess.run([sys.executable, "-m", "isingmaps", *argv], env=env,
                                   capture_output=True, text=True, check=True)
            separate = json.loads(fresh.stdout)
            for envelope in (in_process, separate):
                del envelope["meta"]["elapsed_seconds"]
            assert code == 0 and in_process == separate
        assert in_process["config"]["tol"] == "1/1000000000000"
        assert cli._build_parser.cache_info().misses <= 1

    def test_nu_one_is_exact(self, capsys):
        code, payload = run_json(capsys, "radius", "--nu", "1", "--c", "21/20")
        assert code == 0
        result = payload["result"]
        assert result["exact"] is True
        assert result["rho"] == "100/2523" and result["s_at_rho"] == "200/2523"
        assert result["mu"] == str(Fraction(21, 20) * Fraction(100, 2523))

    def test_far_field_guard(self, capsys):
        code, payload = run_json(capsys, "radius", "--nu", "2", "--c", "3/2")
        assert code == 2
        assert "validated" in payload["error"]["message"]
        code, payload = run_json(capsys, "radius", "--nu", "2", "--c", "3/2",
                                 "--allow-far-field", "--no-exponent")
        assert code == 0
        assert payload["meta"]["warnings"]


class TestPuiseux:
    def test_cube_root_at_critical_point(self, capsys):
        code, payload = run_json(capsys, "puiseux", "--nu", "4", "--c", "1",
                                 "--max-terms", "2")
        assert code == 0
        result = payload["result"]
        assert result["exponent"] == "1/3"
        assert result["exact_center"] is True
        assert result["rho"] == "2/405"
        ramifications = {b["ramification"] for b in result["branches"]}
        assert 3 in ramifications

    def test_square_root_generic(self, capsys):
        code, payload = run_json(capsys, "puiseux", "--nu", "2", "--c", "1",
                                 "--max-terms", "1")
        assert code == 0
        assert payload["result"]["exponent"] == "1/2"


def format_enclosure_by_decimal(lo, hi, dps):
    """The digit loop :func:`cli.format_enclosure` replaces: one Decimal
    division and one Fraction comparison per digit count."""
    mid = (lo + hi) / 2
    num, den = decimal.Decimal(mid.numerator), decimal.Decimal(mid.denominator)
    digits = 0
    while True:
        digits += 1
        with decimal.localcontext() as ctx:
            ctx.prec = digits
            value = num / den
        if lo <= Fraction(value) <= hi or (lo == hi and digits >= dps + 3):
            return format(value, "g")


def random_enclosures(seed, count):
    """Intervals around random rationals of either sign, from 10^-30 to 10^30,
    with widths from 10^-75 to 1 times |mid|, a tenth of them points."""
    rng = random.Random(seed)
    for _ in range(count):
        mid = Fraction(rng.randrange(-10 ** 40, 10 ** 40), rng.randrange(1, 10 ** 40))
        mid *= Fraction(10) ** rng.randrange(-30, 31)
        if rng.random() < 0.1:
            yield mid, mid, rng.choice((5, 15, 57))
            continue
        width = abs(mid) * Fraction(rng.randrange(1, 10 ** 6), 10 ** rng.randrange(6, 76))
        left = width * Fraction(rng.randrange(1, 100), 100)
        yield mid - left, mid - left + width, rng.choice((5, 15, 57))


class TestObservables:
    def test_closed_forms_at_critical_coupling(self, capsys):
        code, payload = run_json(capsys, "observables", "--nu", "5", "--c", "1")
        assert code == 0
        result = payload["result"]
        assert result["M0"] == "45/67"
        assert result["chi"] == "inf"

    def test_finite_size(self, capsys):
        code, payload = run_json(capsys, "observables", "--nu", "1", "--c", "1",
                                 "--n", "2")
        assert code == 0
        assert payload["result"]["M"] == "1/2"

    def test_csv_unsupported(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["observables", "--nu", "5", "--c", "1", "--format", "csv"])
        assert exc.value.code == 2

    def test_finite_size_at_nu_one(self, capsys):
        code, payload = run_json(capsys, "observables", "--nu", "1", "--c", "21/20",
                                 "--n", "24")
        assert code == 0
        assert payload["result"] == {
            "n": 24, "M": "223/2523", "chi": "676200/707281",
            "F": "2.821078107578384650488496711673941727162932505241340232"}

    @pytest.mark.parametrize("c", ["9/10", "21/20", "3"])
    def test_nu_one_prints_inside_the_exact_values_enclosures(self, capsys, c):
        # rho = 1/(12 (1 + c^2)) gives M = (c^2 - 1)/(c^2 + 1), chi = 4 c^2/(c^2 + 1)^2
        code, payload = run_json(capsys, "observables", "--nu", "1", "--c", c)
        assert code == 0
        c = Fraction(c)
        box = thermo_enclosures(1, c)
        exact = {"M": (c * c - 1) / (c * c + 1), "chi": 4 * c * c / (c * c + 1) ** 2}
        for name, value in exact.items():
            lo, hi = box[name]
            assert lo <= value <= hi
            assert lo <= Fraction(payload["result"][name]) <= hi

    def test_nu_one_thermodynamic_strings(self, capsys):
        # s* = 1/(6 (1 + c^2)) is exact, so the boxes are one or two ulps wide
        # at 192 bits and print past dps = 55: M = 41/841, chi = 705600/707281
        code, payload = run_json(capsys, "observables", "--nu", "1", "--c", "21/20")
        assert code == 0
        assert payload["result"] == {
            "F": "3.179243598483534374660431988054455841826339743995109247471",
            "M": "0.04875148632580261593341260404280618311533888228299643281807",
            "chi": "0.997623292581025080554970372454512421512807498009984716117"}

    def test_printed_values_lie_in_their_enclosures(self, capsys):
        code, payload = run_json(capsys, "observables", "--nu", "9/2", "--c", "19/20")
        assert code == 0
        box = thermo_enclosures(Fraction(9, 2), Fraction(19, 20))
        for name in ("F", "M", "chi"):
            lo, hi = box[name]
            assert lo <= Fraction(payload["result"][name]) <= hi

    def test_enclosure_prints_its_shortest_decimal(self):
        third, eps = Fraction(1, 3), Fraction(1, 1000)
        assert cli.format_enclosure(third - eps, third + eps, 55) == "0.333"
        assert cli.format_enclosure(-third - eps, -third + eps, 55) == "-0.333"
        assert cli.format_enclosure(Fraction(1, 4), Fraction(1, 4), 55) == "0.25"

    def test_enclosure_narrower_than_the_digit_cap_prints_inside(self):
        # 2e-20 wide around 2/3: no decimal of at most dps + 3 = 13 digits
        # lies inside, so more digits are printed
        mid, eps, dps = Fraction(2, 3), Fraction(1, 10 ** 20), 10
        printed = cli.format_enclosure(mid - eps, mid + eps, dps)
        assert mid - eps <= Fraction(printed) <= mid + eps
        assert len(printed) - len("0.") > dps + 3
        assert cli.format_enclosure(mid, mid, dps) == "0.6666666666667"

    def test_enclosure_digits_match_the_decimal_loop(self):
        cases = list(random_enclosures(2026, 1000))
        cases += [(Fraction(0), Fraction(0), 10), (Fraction(-1, 8), Fraction(-1, 8), 10),
                  (Fraction(-1, 3), Fraction(-1, 3), 10), (Fraction(-1), Fraction(1), 10),
                  (Fraction(95, 100), Fraction(1049, 1000), 10),
                  (Fraction(-10 ** 12), Fraction(-10 ** 12), 5)]
        for nu, c in ((Fraction(1, 2), Fraction(9, 10)), (6, Fraction(11, 10))):
            box = thermo_enclosures(nu, c)
            cases += [(lo, hi, cli._digits(192)) for lo, hi in box.values()]
        for lo, hi, dps in cases:
            assert cli.format_enclosure(lo, hi, dps) == format_enclosure_by_decimal(lo, hi, dps)

    @pytest.mark.parametrize("bits", [53, 192])
    def test_one_ulp_enclosure_prints_at_most_its_bits_in_digits(self, bits):
        rng, longest = random.Random(bits), 0
        for _ in range(500):
            ulp = Fraction(2) ** rng.randrange(-bits - 40, 40 - bits)
            lo = rng.choice((1, -1)) * rng.randrange(1 << (bits - 1), 1 << bits) * ulp
            printed = cli.format_enclosure(lo, lo + ulp, cli._digits(bits))
            assert lo <= Fraction(printed) <= lo + ulp
            longest = max(longest, len(decimal.Decimal(printed).as_tuple().digits))
        assert cli._digits(bits) < longest <= math.ceil(bits * math.log10(2)) + 1

    def test_empty_enclosure_is_rejected(self):
        with pytest.raises(ValueError):
            cli.format_enclosure(Fraction(1), Fraction(0), 10)

    @pytest.mark.parametrize("nu", ["2", "1/2"])
    def test_free_energy_at_c_one_prints_only_true_digits(self, capsys, nu):
        code, payload = run_json(capsys, "observables", "--nu", nu, "--c", "1")
        assert code == 0
        bits = payload["meta"]["precision_bits"]
        with mpmath.workprec(4 * bits):
            reference = -mpmath.log(rho_closed_form(Fraction(nu), 4 * bits))
            assert payload["result"]["F"] == mpmath.nstr(reference, cli._digits(bits))


class TestExponentFit:
    def test_short_run_reports_fields(self, capsys):
        code, payload = run_json(capsys, "exponent-fit", "--nu", "2", "--c", "1",
                                 "--n-max", "80", "--precision-bits", "96")
        assert code == 0
        result = payload["result"]
        alpha = float(result["alpha_exponent"])
        assert 2.0 < alpha < 3.0
        assert result["n_range"] == [10, 80]
        assert "amplitude" in result and "residual" in result


    @pytest.mark.parametrize("nu, c", [("2", "1"), ("3/2", "21/20")])
    def test_printed_digits_match_a_1024_bit_fit(self, capsys, nu, c):
        # the Aitken step cancels about 7 digits: without guard bits only
        # 47-49 of the 55 printed digits were right
        code, payload = run_json(capsys, "exponent-fit", "--nu", nu, "--c", c,
                                 "--n-max", "200")
        assert code == 0
        result = payload["result"]
        params = IsingParams(nu=Fraction(nu), c=Fraction(c))
        exact = _solve_Z_ring(_Model(params, "integer"), 200)[1:]
        ref = exponent_fit(exact, Fraction(result["mu"]), tuple(result["n_range"]),
                           precision_bits=1024)
        dps = cli._digits(payload["meta"]["precision_bits"])
        for key in ("alpha_exponent", "aitken_exponent", "amplitude", "residual"):
            assert result[key] == mpmath.nstr(getattr(ref, key), dps), key

    def test_nu_one_runs_on_the_closed_form(self, capsys):
        code, payload = run_json(capsys, "exponent-fit", "--nu", "1", "--c", "21/20",
                                 "--n-max", "400")
        assert code == 0
        assert payload["result"]["mu_exact"] is True
        assert abs(float(payload["result"]["alpha_exponent"]) - 2.5) < 0.05

    def test_radius_solve_skips_exponent_and_scan(self, capsys, monkeypatch):
        seen = []
        original = cli.radius_numeric

        def recording(*args, **kwargs):
            seen.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "radius_numeric", recording)
        code, _ = run_json(capsys, "exponent-fit", "--nu", "2", "--c", "21/20",
                           "--n-max", "8")
        assert code == 0
        assert len(seen) == 1
        assert seen[0]["with_exponent"] is False
        assert seen[0]["scan_uniqueness"] is False


class TestCheck:
    def test_battery_passes(self, capsys):
        code, payload = run_json(capsys, "check")
        assert code == 0
        assert payload["result"]["ok"] is True
        names = {c["name"] for c in payload["result"]["checks"]}
        assert {"branch_continuity", "discriminant_divisibility",
                "sturm_single_root", "singular_exponents", "nu_one_closed_form"} <= names


class TestEnvelope:
    def test_determinism_modulo_timing(self, capsys):
        _, first = run_cli(capsys, "radius", "--nu", "4", "--c", "1")
        _, second = run_cli(capsys, "radius", "--nu", "4", "--c", "1")
        strip = lambda text: re.sub(r'"elapsed_seconds": [0-9.e-]+', "", text)
        assert strip(first) == strip(second)

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "radius.json"
        code, _ = run_cli(capsys, "radius", "--nu", "4", "--c", "1",
                          "--out", str(target))
        assert code == 0
        payload = json.loads(target.read_text())
        jsonschema.validate(payload, SCHEMA)
        assert payload["result"]["rho"] == "2/405"

    @pytest.mark.parametrize("bits", ["0", "-5", "4", "7"])
    def test_too_few_precision_bits_is_a_usage_error(self, capsys, bits):
        code, payload = run_json(capsys, "radius", "--nu", "4", "--c", "1",
                                 "--precision-bits", bits)
        assert code == 2
        assert payload["error"]["type"] == "UsageError"
        assert "--precision-bits" in payload["error"]["message"]

    def test_eight_bits_is_the_least_precision(self, capsys):
        code, payload = run_json(capsys, "radius", "--nu", "4", "--c", "1",
                                 "--precision-bits", "8")
        assert code == 0 and payload["config"]["precision_bits"] == 8
        assert payload["meta"]["precision_bits"] == 8

    def test_precision_variable_in_the_environment_changes_nothing(self, capsys,
                                                                   monkeypatch):
        box = thermo_enclosures(Fraction(1, 2), Fraction(9, 10))
        monkeypatch.setenv("ISINGMAPS_PRECISION", "16")
        assert thermo_enclosures(Fraction(1, 2), Fraction(9, 10)) == box
        for command in sorted(GOLDEN):
            code, payload = run_json(capsys, *command.split())
            del payload["meta"]["elapsed_seconds"]
            assert code == 0 and payload == GOLDEN[command], command

    def test_error_envelope_validates(self, capsys):
        _, payload = run_json(capsys, "enumerate", "--n", "9")
        assert "error" in payload


class TestPolynomialString:
    def test_laurent_and_signs(self):
        from isingmaps.exactalg import ParamPoly
        p = ParamPoly({(2, -1): 3, (0, 0): -1})
        assert p.to_str() == "3*nu^2*c^-1 - 1"

    def test_zero(self):
        from isingmaps.exactalg import ParamPoly
        assert ParamPoly().to_str() == "0"


class TestGoldenEnvelopes:
    """Envelopes pinned digit for digit; only meta.elapsed_seconds may move."""

    @pytest.mark.parametrize("command", sorted(GOLDEN))
    def test_envelope_unchanged(self, capsys, command):
        code, payload = run_json(capsys, *command.split())
        assert code == 0
        del payload["meta"]["elapsed_seconds"]
        assert payload == GOLDEN[command]
