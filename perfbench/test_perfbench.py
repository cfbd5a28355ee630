"""Tests of the benchmark itself.  From the repository root:

    python3 -m pytest perfbench/test_perfbench.py
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import pathlib
import signal
import sys
import time
import types
from fractions import Fraction

import mpmath
import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layertrace  # noqa: E402
import refcheck  # noqa: E402
import run  # noqa: E402
import speedprobe  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY_BATCH = [["radius", "--nu", "5", "--c", "1"],
              ["observables", "--nu", "2", "--c", "1", "--n", "8"]]


@pytest.fixture(scope="module")
def checker():
    return refcheck.Checker(refcheck.load_refs(), json.loads(run.SCHEMA_PATH.read_text()))


def cli_output(argv):
    from isingmaps import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def envelope(command, result, bits=192):
    return json.dumps({"command": command, "config": {}, "result": result,
                       "meta": {"precision_bits": bits, "warnings": [],
                                "elapsed_seconds": 1.0}})


def bump_digit(text: str, position: int) -> str:
    """Change the position-th significant digit of a printed decimal."""
    seen = 0
    for i, ch in enumerate(text):
        if ch.isdigit() and (seen or ch != "0"):
            seen += 1
            if seen == position:
                return text[:i] + str((int(ch) + 1) % 10) + text[i + 1:]
    raise ValueError(text)


# -- workload generator ---------------------------------------------------

def test_generator_is_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 7) == workloads.generate(name, 7)
    for name in ("series-asymptotics", "radius-sweep", "thermo-observables"):
        assert len({json.dumps(workloads.generate(name, s)) for s in range(5)}) > 1


def test_every_batch_keeps_its_stratum_counts():
    for name, strata in workloads.WORKLOADS.items():
        for seed in range(10):
            batch = [tuple(op) for op in workloads.generate(name, seed)]
            assert len(batch) == sum(s.count for s in strata)
            for stratum in strata:
                assert sum(op in stratum.pool for op in batch) == stratum.count


def test_every_drawable_op_has_a_reference(checker):
    for name in workloads.WORKLOADS:
        for op in workloads.all_ops(name):
            opts = refcheck.options(op)
            key = "%s %s" % (opts.get("--nu"), opts.get("--c"))
            if op[0] == "radius":
                assert key in checker.refs["radius"]
            elif op[0] == "exponent-fit":
                assert key in checker.refs["radius"] and key in checker.refs["fit"]
            elif op[0] == "observables" and "--n" in opts:
                assert "%s %s" % (key, opts["--n"]) in checker.refs["finite"]
            elif op[0] == "observables":
                assert key in checker.refs["thermo"]


def test_thermo_batches_always_include_the_known_defect(checker):
    for seed in range(20):
        batch = workloads.generate("thermo-observables", seed)
        assert any(checker.known_defect(op) == "StepTooLarge" for op in batch)


# -- reference checker ----------------------------------------------------

def test_checker_accepts_a_certified_radius_and_flags_corruptions(checker):
    argv = list(workloads.radius_op("6", "9/10"))
    code, out = cli_output(argv)
    assert checker.check(argv, code, out).ok
    good = json.loads(out)

    bad = copy.deepcopy(good)
    bad["result"]["rho_interval"] = [bump_digit(x, 8) for x in good["result"]["rho_interval"]]
    bad["result"]["rho"] = bump_digit(good["result"]["rho"], 8)
    outcome = checker.check(argv, code, json.dumps(bad))
    assert not outcome.ok and "rho" in outcome.reason

    bad = copy.deepcopy(good)
    bad["result"]["exponent"] = "1/3"
    assert not checker.check(argv, code, json.dumps(bad)).ok

    bad = copy.deepcopy(good)
    del bad["result"]["rho"]
    assert not checker.check(argv, code, json.dumps(bad)).ok


def test_checker_flags_a_wrong_exact_radius(checker):
    argv = ["radius", "--nu", "5", "--c", "1"]
    code, out = cli_output(argv)
    assert checker.check(argv, code, out).ok
    bad = json.loads(out)
    rho = Fraction(bad["result"]["rho"]) + Fraction(1, 10 ** 30)
    bad["result"]["rho"] = bad["result"]["rho_interval"][0] = str(rho)
    assert not checker.check(argv, code, json.dumps(bad)).ok


def test_checker_holds_fit_outputs_to_half_the_precision(checker):
    argv = list(workloads.fit_op("4", "1"))
    ref = checker.refs["fit"]["4 1"]
    fit = refcheck.recompute_fit(ref["z"], ref["n_min"], Fraction(2, 405), 192)
    with mpmath.workprec(400):
        result = {k: mpmath.nstr(mpmath.mpf(v.numerator) / v.denominator, 55)
                  for k, v in fit.items()}
    result.update(mu="2/405", mu_exact=True, n_range=[ref["n_min"], workloads.FIT_N_MAX])
    assert checker.check(argv, 0, envelope("exponent-fit", result)).ok
    for name in fit:
        bad = dict(result, **{name: bump_digit(result[name], 20)})
        assert not checker.check(argv, 0, envelope("exponent-fit", bad)).ok
    assert not checker.check(argv, 0, envelope("exponent-fit", dict(result, mu="2/403"))).ok


def test_checker_holds_thermo_values_to_the_difference_tolerance(checker):
    argv = list(workloads.thermo_op("1/2", "21/20"))
    ref = checker.refs["thermo"]["1/2 21/20"]
    m_ref = Fraction(ref["M"])
    result = {"F": ref["F"], "M": str(m_ref + abs(m_ref) / 10 ** 6), "chi": ref["chi"]}
    outcome = checker.check(argv, 0, envelope("observables", result))
    assert outcome.ok and outcome.m_digits == pytest.approx(6)
    result["M"] = str(m_ref + Fraction(2, 1000))
    assert not checker.check(argv, 0, envelope("observables", result)).ok


def test_checker_separates_known_defects_from_other_failures(checker):
    error = json.dumps({"command": "observables",
                        "error": {"type": "StepTooLarge", "message": "x"}})
    known = list(workloads.thermo_op("9/2", "9/10"))
    outcome = checker.check(known, 1, error)
    assert not outcome.ok and outcome.known_defect
    outcome = checker.check(list(workloads.thermo_op("1/2", "21/20")), 1, error)
    assert not outcome.ok and not outcome.known_defect
    assert not checker.check(known, 1, "not json").known_defect


def test_checker_flags_a_wrong_symbolic_coefficient(checker):
    argv = ["coeffs", "--symbolic", "--n-max", "3"]
    code, out = cli_output(argv)
    assert checker.check(argv, code, out).ok
    bad = json.loads(out)
    bad["result"]["coefficients"][1]["value"] = "9*nu^4*c^2 + 8*nu^2 + 2"
    assert not checker.check(argv, code, json.dumps(bad)).ok


def test_parse_poly_reads_laurent_and_rational_terms():
    assert refcheck.parse_poly("-3/2*nu^2*c^-1 + c - 4") == {
        (2, -1): Fraction(-3, 2), (0, 1): Fraction(1), (0, 0): Fraction(-4)}


# -- tracer ---------------------------------------------------------------

def test_absent_targets_are_reported_not_zeroed(monkeypatch):
    fake = types.ModuleType("fakepkg.mod")
    fake.present = lambda x: x + 1
    monkeypatch.setattr(layertrace, "PACKAGE", "fakepkg")
    monkeypatch.setitem(sys.modules, "fakepkg.mod", fake)
    tracer = layertrace.Tracer()
    assert layertrace._install_function(tracer, "mod.present", "mod", "present")
    assert not layertrace._install_function(tracer, "mod.gone", "mod", "gone")
    assert not layertrace._install_function(tracer, "none.x", "none", "x")
    assert fake.present(1) == 2
    assert tracer.report()["mod.present"]["calls"] == 1


def test_self_time_excludes_children_and_recursion_counts_once():
    tracer = layertrace.Tracer()

    def leaf():
        time.sleep(0.02)

    leaf_span = tracer.wrap("leaf", leaf)

    def outer(depth):
        leaf_span()
        if depth:
            outer_span(depth - 1)

    outer_span = tracer.wrap("outer", outer)
    outer_span(1)
    report = tracer.report()
    assert report["outer"]["calls"] == 2 and report["leaf"]["calls"] == 2
    assert report["outer"]["self_s"] < 0.01
    assert report["outer"]["s"] == pytest.approx(report["leaf"]["s"], abs=0.01)


def test_traced_self_times_sum_to_no_more_than_wall():
    result = run.spawn("traced", TINY_BATCH, time.monotonic() + 60)
    assert result["absent"] == []
    assert result["spans"]["cli.main"]["calls"] == len(TINY_BATCH)
    self_sum = sum(s["self_s"] for s in result["spans"].values())
    assert 0 < self_sum <= result["wall_s"]


# -- speed probe ----------------------------------------------------------

def test_reference_time_removes_probe_time_and_scales_by_speed():
    slow = [2 * speedprobe.REFERENCE_S] * 4
    assert speedprobe.reference_seconds(1.1, [0.1], slow) == pytest.approx(0.5)
    assert speedprobe.reference_seconds(1.0, [], [speedprobe.REFERENCE_S]) == pytest.approx(1.0)


def test_probe_samples_inside_an_operation_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    probe = speedprobe.Probe()
    lead = probe.start()
    end = time.perf_counter() + 6 * speedprobe.INTERVAL_S
    while time.perf_counter() < end:
        sum(range(1000))
    trail = probe.stop()
    assert len(lead) == len(trail) == speedprobe.BRACKET
    assert len(probe.inside) >= 3 and all(t > 0 for t in probe.inside)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == previous


def test_probe_kernel_leaves_the_mpmath_context_alone():
    with mpmath.workprec(77):
        speedprobe.kernel()
        assert mpmath.mp.prec == 77


# -- the run as a whole ---------------------------------------------------

def test_machine_facts_are_recorded():
    facts = run.machine_facts()
    assert isinstance(facts["cpu_count"], int) and facts["cpu_count"] >= 1
    assert facts["python"].count(".") == 2
    assert facts["mpmath_backend"] in ("python", "gmpy", "sage")


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_a_report_then_the_result_line(monkeypatch, capsys, trace):
    monkeypatch.setattr(workloads, "generate", lambda *args: copy.deepcopy(TINY_BATCH))
    monkeypatch.setattr(run, "SETUP_SPAWNS", 2)
    assert run.main(["--workload", "radius-sweep", "--seed", "1", "--seconds", "0",
                     "--trace", trace]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    last = json.loads(lines[-1])
    report = json.loads("\n".join(lines[:-1]))
    assert set(report["machine"]) >= {"cpu_count", "python", "mpmath_backend"}
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert set(last["metrics"]) == {m["name"] for m in BENCHMARK[kind]}
    assert all(set(v) == {"value", "unit"} for v in last["metrics"].values())


def test_run_refuses_a_checkout_without_the_package(monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", HERE / "no-such-checkout")
    monkeypatch.setattr(run, "SCHEMA_PATH", HERE / "no-such-checkout" / "schema.json")
    assert run.main(["--workload", "radius-sweep", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
