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
from hypothesis import given, settings, strategies as st
from mpmath.libmp import from_rational, round_nearest

from isingmaps import cli, series, singular
from isingmaps.cli import main, parse_rational
from isingmaps.critical import exponent_fit, thermo_enclosures
from isingmaps.exactalg import PP_ONE, PP_ZERO
from isingmaps.series import (
    IsingParams, TruncatedSeries, _Model, _series_powers, _solve_Z_ring, _symbolic_tables,
)
from isingmaps.singular import dominant_expansions, radius_numeric, rho_closed_form
from oracles import format_enclosure_by_long_division, pp_exact_div, shift_c

SCHEMA_PATH = pathlib.Path(__file__).resolve().parent.parent / "schemas" / "output.schema.json"
SCHEMA = json.loads(SCHEMA_PATH.read_text())
GOLDEN = json.loads((pathlib.Path(__file__).resolve().parent
                     / "golden_envelopes.json").read_text())
# stdout of --help and stderr of usage errors, by argv, as the parser of
# every command printed them at 80 columns
PARSER_GOLDEN = json.loads((pathlib.Path(__file__).resolve().parent
                            / "golden_parser.json").read_text())

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
    return [shift_c(pp_exact_div(g.coefficient(n + 2), nine_gamma), -n)
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
        # the full parser and each command's own parser, which main builds
        # when the command is the first word, take the same options
        parser = cli._build_parser()
        commands = parser._subparsers._group_actions[0].choices
        slots = 0
        for command, options in TAKES.items():
            own = cli._build_parser(command)
            own_commands = own._subparsers._group_actions[0].choices
            assert list(own_commands) == [command]
            flags = {flag for action in commands[command]._actions
                     for flag in action.option_strings} - {"-h", "--help"}
            assert flags == {flag for action in own_commands[command]._actions
                             for flag in action.option_strings} - {"-h", "--help"}
            assert flags & set(SHARED_OPTIONS) == set(options), command
            slots += len(flags)
            argv = [command, *MINIMAL_ARGS[command], *(
                arg for option in options for arg in (option, SHARED_OPTIONS[option]))]
            args = parser.parse_args(argv)
            assert args.command == command
            assert own.parse_args(argv) == args
        assert slots == 37

    @pytest.mark.parametrize("argv", sorted(PARSER_GOLDEN))
    def test_help_and_usage_errors_unchanged(self, capsys, monkeypatch, argv):
        # help and usage-error texts as the full parser printed them, byte
        # for byte, though a call that names its command builds only that
        # command's parser
        monkeypatch.setenv("COLUMNS", "80")
        golden = PARSER_GOLDEN[argv]
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == golden["code"]
        captured = capsys.readouterr()
        printed = captured.out if golden["stream"] == "stdout" else captured.err
        assert printed == golden["text"]

    def test_a_call_builds_only_its_own_command(self, capsys, monkeypatch):
        monkeypatch.setitem(cli._HANDLERS, "radius", lambda args, bits: ({}, [], None))
        cli._build_parser.cache_clear()
        assert main(["radius", "--nu", "2", "--c", "1"]) == 0
        assert main(["radius", "--nu", "3", "--c", "1"]) == 0
        info = cli._build_parser.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        assert list(cli._build_parser("radius")._subparsers._group_actions[0].choices) \
            == ["radius"]


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

    @pytest.mark.parametrize("mode", [("--symbolic",), ("--nu", "2", "--c", "1")])
    def test_precision_bits_needs_numeric(self, capsys, mode):
        # only the rounded rows read a precision
        code, payload = run_json(capsys, "coeffs", *mode, "--precision-bits", "64")
        assert code == 2
        assert payload["error"] == {"type": "UsageError",
                                    "message": "--precision-bits applies only with --numeric"}

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
        code, payload = run_json(capsys, "enumerate", "--n", "8")
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
        # one build per command (and one of the full parser) per process
        info = cli._build_parser.cache_info()
        assert info.misses == info.currsize <= len(cli.COMMANDS) + 1

    def test_nu_one_is_exact(self, capsys):
        code, payload = run_json(capsys, "radius", "--nu", "1", "--c", "21/20")
        assert code == 0
        result = payload["result"]
        assert result["exact"] is True
        assert result["rho"] == "100/2523" and result["s_at_rho"] == "200/2523"
        assert result["mu"] == str(Fraction(21, 20) * Fraction(100, 2523))

    def test_default_rho_is_a_decimal_inside_its_enclosure(self, capsys):
        # at the default tol the midpoint printed to 55 digits was wrong from
        # its 12th; the shortest decimal in the enclosure is within one unit
        # of its last digit of the tol-1e-60 radius
        code, payload = run_json(capsys, "radius", "--nu", "1/2", "--c", "21/20")
        assert code == 0
        printed = payload["result"]["rho"]
        code, payload = run_json(capsys, "radius", "--nu", "1/2", "--c", "21/20",
                                 "--tol", "1e-60")
        assert code == 0
        tight = Fraction(payload["result"]["rho"])
        unit = Fraction(1, 10 ** len(printed.split(".")[1]))
        assert abs(Fraction(printed) - tight) < unit
        report = radius_numeric(IsingParams(nu=Fraction(1, 2), c=Fraction(21, 20)))
        for field, (lo, hi) in (("rho", report.rho_interval), ("mu", report.mu_interval),
                                ("s_at_rho", report.s_interval)):
            code, payload = run_json(capsys, "radius", "--nu", "1/2", "--c", "21/20")
            assert lo <= Fraction(payload["result"][field]) <= hi
            assert payload["result"][field] == cli.format_enclosure(lo, hi, cli._digits(192))

    def test_far_field_guard(self, capsys):
        code, payload = run_json(capsys, "radius", "--nu", "2", "--c", "3/2")
        assert code == 2
        assert "validated" in payload["error"]["message"]
        code, payload = run_json(capsys, "radius", "--nu", "2", "--c", "3/2",
                                 "--allow-far-field", "--no-exponent")
        assert code == 0
        assert payload["meta"]["warnings"]

    @pytest.mark.parametrize("command", ["radius", "puiseux", "observables", "exponent-fit"])
    def test_far_field_message_names_the_region_and_only_real_options(self, capsys,
                                                                      command):
        code, payload = run_json(capsys, command, "--nu", "2", "--c", "3")
        message = payload["error"]["message"]
        assert code == 2 and payload["error"]["type"] == "UsageError"
        assert "validated region |c-1| <= 1/4" in message
        assert "allow_far_field" not in message
        assert ("--allow-far-field" in message) == (command == "radius")

    @pytest.mark.parametrize("bits", ["8", "192"])
    def test_interval_ends_are_rounded_outward(self, capsys, bits):
        # every printed interval holds the certified one, and each printed
        # end lies within one unit in its last digit of the certified end
        nus = ("1/2", "3/4", "3/2", "2", "5/2", "3", "7/2", "4", "9/2", "5", "6")
        cs = ("9/10", "19/20", "21/20", "11/10")
        code, payload = run_json(capsys, "radius", "--nu", ",".join(nus), "--c", ",".join(cs),
                                 "--precision-bits", bits, "--no-exponent")
        assert code == 0
        dps = cli._digits(int(bits))
        points = payload["result"]["points"]
        assert len(points) == 44
        for point in points:
            report = radius_numeric(IsingParams(nu=Fraction(point["nu"]),
                                                c=Fraction(point["c"])),
                                    with_exponent=False, scan_uniqueness=False)
            assert not report.exact
            for field, (lo, hi) in (("rho_interval", report.rho_interval),
                                    ("mu_interval", report.mu_interval),
                                    ("s_interval", report.s_interval)):
                printed = [Fraction(end) for end in point[field]]
                assert printed[0] <= lo and hi <= printed[1], (point, field)
                for end, exact in zip(printed, (lo, hi)):
                    unit = Fraction(10) ** (math.floor(math.log10(exact)) + 1 - dps)
                    assert abs(end - exact) < unit, (point, field)


PUISEUX_POINTS = [("2", "21/20"), ("2", "1"), ("6", "11/10"), ("3/4", "11/10"),
                  ("5", "1"), ("4", "1"), ("1/4", "1")]


def _printed_parts(text):
    """(re, im) Fractions of a printed Puiseux coefficient."""
    parts = re.fullmatch(r"\((\S+) ([-+]) (\S+)j\)", text)
    if not parts:
        return Fraction(text), Fraction(0)
    sign = -1 if parts.group(2) == "-" else 1
    return Fraction(parts.group(1)), sign * Fraction(parts.group(3))


class TestPuiseux:
    @pytest.mark.parametrize("nu, c", PUISEUX_POINTS)
    def test_every_term_count_prints_inside_its_enclosures(self, capsys, nu, c):
        expansions = dominant_expansions(IsingParams(nu=Fraction(nu), c=Fraction(c)),
                                         max_terms=8)[1]
        for n in range(1, 9):
            code, payload = run_json(capsys, "puiseux", "--nu", nu, "--c", c,
                                     "--max-terms", str(n))
            assert code == 0, n
            branches = payload["result"]["branches"]
            assert len(branches) == len(expansions)
            for printed, branch in zip(branches, expansions):
                assert len(printed["terms"]) == len(branch.terms[:n])
                for term, (coef, e) in zip(printed["terms"], branch.terms):
                    assert term["exponent"] == str(e)
                    re_part, im_part = _printed_parts(term["coefficient"])
                    if isinstance(coef, Fraction):
                        assert (re_part, im_part) == (coef, 0)
                        continue
                    assert coef.re[0] <= re_part <= coef.re[1]
                    assert coef.im[0] <= im_part <= coef.im[1]

    @pytest.mark.parametrize("max_terms", ["0", "-1"])
    def test_max_terms_below_one_is_a_usage_error(self, capsys, max_terms):
        code, payload = run_json(capsys, "puiseux", "--nu", "2", "--c", "1",
                                 "--max-terms", max_terms)
        assert code == 2
        assert payload["error"]["type"] == "UsageError"
        assert "--max-terms" in payload["error"]["message"]

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

    def test_off_critical_bundle_reads_one_box(self, capsys, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return thermo_enclosures(*args, **kwargs)

        monkeypatch.setattr(cli, "thermo_enclosures", counted)
        code, payload = run_json(capsys, "observables", "--nu", "6", "--c", "11/10")
        assert code == 0 and len(calls) == 1
        box = thermo_enclosures(6, Fraction(11, 10))
        assert payload["result"] == {
            name: cli.format_enclosure(*box[name], cli._digits(192)) for name in box}

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

    @given(st.fractions(min_value=-10 ** 30, max_value=10 ** 30), st.integers(0, 250),
           st.integers(0, 2 ** 64), st.integers(0, 100), st.booleans(),
           st.sampled_from((5, 15, 55, 57)))
    @settings(max_examples=400, deadline=None)
    def test_enclosure_digits_match_the_long_division(self, mid, shift, man, left,
                                                      relative, dps):
        # widths from 0 (man = 0: a point) down to 2^-250, absolute or times
        # |mid|, with mid anywhere from the lower end to the upper
        width = Fraction(man, 2 ** 64) / 2 ** shift * (abs(mid) if relative else 1)
        lo = mid - width * Fraction(left, 100)
        assert cli.format_enclosure(lo, lo + width, dps) == \
            format_enclosure_by_long_division(lo, lo + width, dps)

    def test_golden_enclosures_match_the_long_division(self):
        # every golden observables and puiseux field printed from a box
        dps, seen = cli._digits(192), 0
        for command, envelope in GOLDEN.items():
            name, *args = command.split()
            if name not in ("observables", "puiseux"):
                continue
            nu, c, rest = Fraction(args[1]), Fraction(args[3]), args[4:]
            if name == "observables" and not rest and c != 1:
                boxes = thermo_enclosures(nu, c)
            elif name == "puiseux":
                report, expansions = dominant_expansions(IsingParams(nu=nu, c=c), max_terms=3,
                                                         precision_bits=192)
                boxes = {} if report.exact else {
                    "rho": report.rho_interval, "s_at_rho": report.s_interval}
                result = {}
                for i, (branch, printed) in enumerate(zip(expansions,
                                                          envelope["result"]["branches"])):
                    for k, (coef, _) in enumerate(branch.terms):
                        if isinstance(coef, Fraction):
                            continue
                        text = printed["terms"][k]["coefficient"]
                        parts = re.fullmatch(r"\((\S+) ([-+]) (\S+)j\)", text)
                        result[i, k] = parts.group(1) if parts else text
                        boxes[i, k] = coef.re
                        if parts:
                            lo, hi = coef.im
                            result[i, k, "im"] = parts.group(3)
                            boxes[i, k, "im"] = (-hi, -lo) if parts.group(2) == "-" else (lo, hi)
                result.update({f: envelope["result"][f] for f in ("rho", "s_at_rho")})
                envelope = {"result": result}
            else:
                continue
            for field, (lo, hi) in boxes.items():
                printed = envelope["result"][field]
                assert cli.format_enclosure(lo, hi, dps) == printed, (command, field)
                assert format_enclosure_by_long_division(lo, hi, dps) == printed
                seen += 1
        # six observables and two puiseux centres, and 25 coefficient parts:
        # 6 at (2, 21/20) and at (5, 1), 13 at (4, 1)
        assert seen == 33

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

    def test_fit_reads_the_pass_integers_with_no_rounding_or_mpmath_log(self, capsys,
                                                                        monkeypatch):
        # no Z_n is formed, rounded to an mpf or passed to mpmath.log
        def refuse(*args, **kwargs):
            raise AssertionError("called on the exponent-fit path")

        monkeypatch.setattr(mpmath, "log", refuse)
        monkeypatch.setattr(series._Model, "z_coefficient", refuse)
        monkeypatch.setattr(series, "_rounded", refuse)
        monkeypatch.setattr(series, "coefficient_sequence", refuse)
        monkeypatch.setattr(cli, "coefficient_sequence", refuse)
        for nu, c in (("2", "1"), ("3/2", "21/20"), ("1", "21/20")):
            code, payload = run_json(capsys, "exponent-fit", "--nu", nu, "--c", c,
                                     "--n-max", "60")
            assert code == 0, payload

    def test_nu_one_runs_on_the_closed_form(self, capsys):
        code, payload = run_json(capsys, "exponent-fit", "--nu", "1", "--c", "21/20",
                                 "--n-max", "400")
        assert code == 0
        assert payload["result"]["mu_exact"] is True
        assert abs(float(payload["result"]["alpha_exponent"]) - 2.5) < 0.05

    @pytest.mark.parametrize("n_min, n_max, message", [
        ("1", "400", "n_range must start at 2 or later"),
        ("400", "400", "n_range must be increasing"),
        ("50", "40", "n_range must be increasing"),
    ])
    def test_bad_n_min_is_refused_before_the_pass(self, capsys, monkeypatch,
                                                  n_min, n_max, message):
        def refuse(*args, **kwargs):
            raise AssertionError("the series pass ran before the range check")

        monkeypatch.setattr(cli, "scaled_Z", refuse)
        monkeypatch.setattr(cli, "radius_numeric", refuse)
        code, payload = run_json(capsys, "exponent-fit", "--nu", "4", "--c", "21/20",
                                 "--n-max", n_max, "--n-min", n_min)
        assert code == 2
        assert payload["error"] == {"type": "UsageError", "message": message}

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
                "sturm_single_root", "singular_exponents", "nu_one_closed_form",
                "puiseux_branches", "transition_exponents", "enumeration_oracle"} <= names
        detail = {c["name"]: c["detail"] for c in payload["result"]["checks"]}
        assert detail["transition_exponents"].startswith("alpha=-1 beta=1/2 gamma=2;")
        assert "d1=7/15 d2=-83/900 d3=49/2700(nu>=4)|797/21600(nu<4)" \
            in detail["transition_exponents"]

    # one coefficient of one closed-form table moved by 1, and the entry
    # that reads it
    @pytest.mark.parametrize("name, side, factor, k, entry", [
        ("rho", 0, 0, 2, "transition_exponents"),
        ("s_at_rho", 1, 0, 1, "branch_continuity"),
        ("M0", 0, 2, 0, "transition_exponents"),
        ("chi", 1, 1, 0, "transition_exponents"),
    ])
    def test_a_perturbed_closed_form_fails_its_entry(self, capsys, monkeypatch,
                                                     name, side, factor, k, entry):
        branches = list(singular.CLOSED_FORMS[name])
        p, q, factors = branches[side]
        factors = list(factors)
        x, coeffs, e = factors[factor]
        factors[factor] = (x, coeffs[:k] + (coeffs[k] + 1,) + coeffs[k + 1:], e)
        branches[side] = (p, q, tuple(factors))
        monkeypatch.setitem(singular.CLOSED_FORMS, name, tuple(branches))
        code, payload = run_json(capsys, "check")
        assert code == 1 and payload["result"]["ok"] is False
        assert {c["name"]: c["ok"] for c in payload["result"]["checks"]}[entry] is False


class TestEnvelope:
    def test_import_loads_neither_dataclasses_nor_inspect(self):
        # every command pays for its imports: dataclasses pulls in inspect,
        # about 20 ms of a fresh process
        src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        probe = "import sys, isingmaps.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        fresh = subprocess.run([sys.executable, "-c", probe], env=env,
                               capture_output=True, text=True, check=True)
        assert fresh.stdout.strip() == "[]"

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
