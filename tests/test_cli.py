"""End-to-end tests of the command-line interface."""
import json
import pathlib
import re
from fractions import Fraction

import jsonschema
import mpmath
import pytest

from isingmaps import cli
from isingmaps.cli import main, parse_rational
from isingmaps.critical import exponent_fit, thermo_enclosures
from isingmaps.series import IsingParams, _Model, _solve_Z_ring
from isingmaps.singular import rho_closed_form

SCHEMA_PATH = pathlib.Path(__file__).resolve().parent.parent / "schemas" / "output.schema.json"
SCHEMA = json.loads(SCHEMA_PATH.read_text())
GOLDEN = json.loads((pathlib.Path(__file__).resolve().parent
                     / "golden_envelopes.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload


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

    def test_numeric_mode_refuses_nu_one(self, capsys):
        code, payload = run_json(capsys, "coeffs", "--nu", "1", "--c", "1",
                                 "--numeric")
        assert code == 1
        assert payload["error"]["type"] == "NumericModeAtNuOne"

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
        symbolic = _solve_Z_ring(_Model(IsingParams(nu=nu, c=c), "symbolic"), 12)
        assert [row["value"] for row in payload["result"]["coefficients"]] == \
            [str(symbolic[n].evaluate(nu, c)) for n in range(1, 13)]

    def test_point_rows_at_nu_one(self, capsys):
        code, payload = run_json(capsys, "coeffs", "--nu", "1", "--c", "9/10",
                                 "--n-max", "4")
        assert code == 0
        symbolic = _solve_Z_ring(_Model(IsingParams(nu=1, c=1), "symbolic"), 4)
        assert [row["value"] for row in payload["result"]["coefficients"]] == \
            [str(symbolic[n].evaluate(1, Fraction(9, 10))) for n in range(1, 5)]

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

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
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
        code, out = run_cli(capsys, "observables", "--nu", "5", "--c", "1",
                            "--format", "csv")
        assert code == 2

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

    @pytest.mark.parametrize("nu", ["2", "1/2"])
    def test_free_energy_at_c_one_prints_only_true_digits(self, capsys, nu):
        code, payload = run_json(capsys, "observables", "--nu", nu, "--c", "1")
        assert code == 0
        bits = payload["meta"]["precision_bits"]
        with mpmath.workprec(4 * bits):
            reference = -mpmath.log(rho_closed_form(Fraction(nu), 4 * bits))
            assert payload["result"]["F"] == mpmath.nstr(reference, cli._digits(bits))

    def test_tol_is_rejected_where_it_has_no_effect(self, capsys):
        for argv in (("observables", "--nu", "2", "--c", "21/20"),
                     ("puiseux", "--nu", "2", "--c", "1")):
            code, payload = run_json(capsys, *argv, "--tol", "1/1000")
            assert code == 2
            assert payload["error"]["type"] == "UsageError"
        _, payload = run_json(capsys, "radius", "--nu", "4", "--c", "1")
        assert payload["config"]["tol"] == "1/1000000000000"


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
                "sturm_single_root", "singular_exponents"} <= names


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

    def test_env_var_precision(self, capsys, monkeypatch):
        monkeypatch.setenv("ISINGMAPS_PRECISION", "96")
        code, payload = run_json(capsys, "observables", "--nu", "5", "--c", "1")
        assert code == 0
        assert payload["meta"]["precision_bits"] == 96

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
    def test_envelope_unchanged(self, capsys, monkeypatch, command):
        monkeypatch.delenv("ISINGMAPS_PRECISION", raising=False)
        code, payload = run_json(capsys, *command.split())
        assert code == 0
        del payload["meta"]["elapsed_seconds"]
        assert payload == GOLDEN[command]
