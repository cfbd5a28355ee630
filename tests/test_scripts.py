"""The standalone studies in scripts/ run end to end on small inputs."""
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name, argv, header", [
    ("radius_sweep.py", ["--nu-count", "3", "--with-exponent"],
     "nu,c,rho,mu,s_at_rho,exponent,exact"),
    ("exponent_table.py", ["--points", "2:1", "--n-max", "40"],
     "alpha(fit)"),
    ("transition_scan.py",
     ["--offsets", "1/100", "--h", "1/1000", "--precision-bits", "128"],
     "== observables near the transition =="),
])
def test_script_runs_and_prints_its_header(name, argv, header, monkeypatch, capsys):
    path = SCRIPTS / name
    monkeypatch.setattr(sys, "argv", [str(path)] + argv)
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0), exc.code
    out = capsys.readouterr().out
    assert header in out.splitlines()[0]
