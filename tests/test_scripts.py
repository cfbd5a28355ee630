"""The benchmark's own scripts still read the package as it is: the
reference generator imports against the series engine and agrees with it,
and every function the layer trace wraps by name still exists."""
import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_reference_generator_imports_and_matches_the_engine(monkeypatch):
    """perfbench/make_refs.py still imports against the series engine, and
    its exact-Fraction Z_n agree with the integer engine's; importing it runs
    nothing and writes no refs.json."""
    from fractions import Fraction

    from isingmaps.series import IsingParams, _Model, _solve_Z_ring

    path = PERFBENCH / "make_refs.py"
    refs = path.parent / "refs.json"
    before = refs.read_bytes()
    monkeypatch.setattr(sys, "path", list(sys.path))  # make_refs prepends to it
    spec = importlib.util.spec_from_file_location("make_refs", path)
    make_refs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_refs)
    assert refs.read_bytes() == before
    nu, c = Fraction(3, 2), Fraction(21, 20)
    expect = _solve_Z_ring(_Model(IsingParams(nu=nu, c=c), "integer"), 30)[1:]
    assert make_refs.exact_Z(nu, c, 30) == expect


def test_layer_trace_targets_exist():
    """Every function the benchmark's layer trace wraps by name still exists,
    so a rename fails here too.  Loading the module patches nothing; only its
    ``install`` would."""
    import isingmaps

    path = PERFBENCH / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    targets = list(layertrace.FUNCTIONS) + [layertrace.AUDITED, layertrace.SURVEY]
    assert len(targets) >= 27
    for name, module, attr_path in targets:
        owner = importlib.import_module("%s.%s" % (isingmaps.__name__, module))
        for part in attr_path.split("."):
            # defined on the owner itself, as install() looks it up
            assert part in vars(owner), "%s: %s.%s is gone" % (name, module, attr_path)
            owner = vars(owner)[part]
        assert callable(owner), name
