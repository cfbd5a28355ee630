"""The isingmaps benchmark: CLI operations as users run them, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the parent of this directory.  Load is a
closed loop with one client: the batch workloads.generate(workload, seed)
runs one operation after another, in-process, through ``isingmaps.cli.main``.
Each repetition of the batch runs in a fresh worker process, so no cache
carries over between repetitions.  A run repeats its batch while the next
repetition fits in ``--seconds``, at least once.

Other tenants of the host change its speed by up to 1.8x, for stretches of
under a second to minutes, so every gated time is given at a fixed reference
speed: the worker samples its core's speed during and around each operation
(speedprobe.py) and scales the operation's time by it.  ``wall_s`` is the
sum over the batch of each operation's median reference time over the
repetitions, and ``op_p50_s`` the median of those per-operation times; a
batch has fewer than 20 operations, so no higher percentile is named.
``setup_s`` is the median, over import-only workers spawned
before each repetition and after the last, of the time from spawn to the end
of ``import isingmaps.cli``, scaled by probe kernels run right after the
import.  The unscaled times and ``failed_frac``, which is 0 on three of the
four workloads and so is not gated, are in the full report.

With ``--trace 1`` the run alternates untraced and traced (layertrace.py)
repetitions, as many pairs as fit in ``--seconds`` and at least one, and
reports the spans and counters of the fastest traced one, plus the tracing
overhead.

Every operation's envelope is validated against schemas/output.schema.json
and checked against refs.json (refcheck.py).  An operation fails on a
nonzero exit code, an exception, a schema violation or a reference miss.
Failures recorded in refs.json as known defects count as failed but leave
``correct`` true; any other failure makes it false.

Output: a full JSON report (machine facts, sample counts, failures), then,
as the last line, {"correct", "attempted", "failed", "metrics"}.  The exit
code is 0 when the run completed, whatever it measured; it is 2 when the
checkout lacks the package or the schema, and 1 when a worker breaks.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import mpmath

import layertrace
import refcheck
import speedprobe
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCHEMA_PATH = ROOT / "schemas" / "output.schema.json"
SETUP_SPAWNS = 3  # before each repetition and after the last, to sample host states
DEADLINE_S = 170.0


class WorkerFailed(Exception):
    pass


def machine_facts() -> Dict[str, object]:
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND}


def spawn(mode: str, ops: Optional[list], deadline: float) -> dict:
    """Run one worker to completion; adds its set-up time as ``setup_s``."""
    env = dict(os.environ)
    env.pop("ISINGMAPS_PRECISION", None)  # every run uses the default precision
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--mode", mode],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, cwd=str(ROOT), env=env)
    try:
        out, err = proc.communicate(json.dumps(ops or []),
                                    timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed("worker in %s mode ran past the deadline" % mode)
    if proc.returncode != 0:
        raise WorkerFailed("worker in %s mode exited with %d: %s"
                           % (mode, proc.returncode, err.strip()[-2000:]))
    result = json.loads(out)
    result["setup_s"] = result["ready"] - started
    return result


def metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def check_ops(checker: refcheck.Checker, results: List[dict]):
    """Outcome of every op in every worker result, with its argv and time."""
    checked = []
    for result in results:
        for op in result["ops"]:
            outcome = checker.check(op["argv"], op["code"], op["stdout"], op["error"])
            checked.append((op, outcome))
    return checked


def summarize(checked) -> dict:
    failed = [(op, o) for op, o in checked if not o.ok]
    return {
        "attempted": len(checked),
        "failed": len(failed),
        "failed_frac": len(failed) / len(checked),
        "known_defects": sum(1 for _, o in failed if o.known_defect),
        "correct": all(o.known_defect for _, o in failed),
        "failures": [{"argv": " ".join(op["argv"]), "known_defect": o.known_defect,
                      "reason": o.reason} for op, o in failed],
    }


def sample_setups(setups: List[dict], deadline: float) -> None:
    setups.extend(spawn("setup", None, deadline) for _ in range(SETUP_SPAWNS))


def reference_latencies(reps: List[dict]) -> List[float]:
    """Each operation's median time at the reference speed over the repetitions."""
    per_op = zip(*([speedprobe.reference_seconds(op["seconds"], op["probe"]["inside"],
                                                 op["probe"]["inside"] + op["probe"]["around"])
                    for op in r["ops"]] for r in reps))
    return [statistics.median(times) for times in per_op]


def net_seconds(op: dict) -> float:
    """An operation's measured time, less the probe kernels run inside it."""
    return op["seconds"] - sum(op["probe"]["inside"]) if op["probe"] else op["seconds"]


def best_latencies(reps: List[dict]) -> List[float]:
    """Each operation's least measured latency over the repetitions."""
    return [min(net_seconds(r["ops"][i]) for r in reps) for i in range(len(reps[0]["ops"]))]


def repeat_within(seconds: float, once: Callable[[], None]) -> None:
    """Call ``once`` at least once, and again while another call fits in ``seconds``."""
    start = time.monotonic()
    while True:
        began = time.monotonic()
        once()
        now = time.monotonic()
        if now - start + (now - began) > seconds:
            return


def timed_run(workload: str, seed: int, seconds: float, deadline: float,
              checker: refcheck.Checker) -> dict:
    ops = workloads.generate(workload, seed)
    setups: List[dict] = []
    reps: List[dict] = []

    def once():
        sample_setups(setups, deadline)
        reps.append(spawn("batch", ops, deadline))

    repeat_within(seconds, once)
    sample_setups(setups, deadline)
    report = summarize(check_ops(checker, reps))
    ref = reference_latencies(reps)
    raw = best_latencies(reps)
    report["repetitions"] = len(reps)
    report["op_reference_s"] = {" ".join(op): t for op, t in zip(ops, ref)}
    report["end_to_end"] = {
        "wall_s": metric(sum(ref), "s", len(reps)),
        "op_p50_s": metric(statistics.median(ref), "s", len(ref)),
        "setup_s": metric(statistics.median(
            speedprobe.reference_seconds(r["setup_s"], [], r["probe"]) for r in setups),
            "s", len(setups)),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in reps), "MB",
                              len(reps)),
    }
    # Reported, not gated: unscaled times, and a ratio that is 0 on most workloads.
    report["ungated"] = {
        "measured_wall_s": metric(sum(raw), "s", len(reps)),
        "measured_setup_s": metric(statistics.median(r["setup_s"] for r in setups), "s",
                                   len(setups)),
        "failed_frac": metric(report["failed_frac"], "ratio", report["attempted"]),
    }
    return report


def per_layer(untraced_wall: float, traced_wall: float, traced: dict,
              checked) -> Dict[str, dict]:
    """Per-layer metrics of one traced repetition; absent targets are left out."""
    out: Dict[str, dict] = {}
    absent = set(traced["absent"])
    for name in layertrace.SPAN_NAMES:
        if name in absent:
            continue
        span = traced["spans"].get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        out[name + ".calls"] = metric(span["calls"], "count", 1)
        out[name + ".s"] = metric(span["s"], "s", 1)
        out[name + ".self_s"] = metric(span["self_s"], "s", 1)
    counters = dict(traced["counters"])
    rho = layertrace.CACHES[0][0]
    if rho in traced["caches"]:
        lookups = counters.get(rho + ".hits", 0) + counters.get(rho + ".misses", 0)
        counters[rho + ".hit_ratio"] = counters.get(rho + ".hits", 0) / lookups if lookups else 0.0
    cache_names = {name for name, _, _ in layertrace.CACHES}
    for name in layertrace.COUNTER_NAMES:
        source = name.rsplit(".", 1)[0]
        if source in absent or (source in cache_names and source not in traced["caches"]):
            continue
        unit = "ratio" if name.endswith("ratio") else "count"
        out[name] = metric(counters.get(name, 0), unit, 1)
    digits = [o.m_digits for _, o in checked if o.m_digits is not None]
    out["critical.M.correct_digits"] = metric(
        statistics.median(digits) if digits else 0.0, "digits", len(digits))
    out["trace.overhead_frac"] = metric(traced_wall / untraced_wall - 1, "ratio", 1)
    return out


def traced_run(workload: str, seed: int, seconds: float, deadline: float,
               checker: refcheck.Checker) -> dict:
    ops = workloads.generate(workload, seed)
    reps: List[dict] = []
    repeat_within(seconds, lambda: reps.extend(spawn(mode, ops, deadline)
                                               for mode in ("batch", "traced")))
    plain = [r for r in reps if "spans" not in r]
    traced = [r for r in reps if "spans" in r]
    checked = check_ops(checker, reps)
    report = summarize(checked)
    fastest = min(traced, key=lambda r: r["wall_s"])
    report["repetitions"] = len(reps)
    report["absent"] = fastest["absent"]
    report["untraced_wall_s"] = sum(best_latencies(plain))
    report["traced_wall_s"] = sum(best_latencies(traced))
    report["fastest_traced_wall_s"] = fastest["wall_s"]
    report["fastest_traced_self_sum_s"] = sum(s["self_s"] for s in fastest["spans"].values())
    report["per_layer"] = per_layer(report["untraced_wall_s"], report["traced_wall_s"],
                                    fastest, checked[:len(plain[0]["ops"])])
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p) for p in (ROOT / "src" / "isingmaps" / "cli.py", SCHEMA_PATH)
               if not p.is_file()]
    if missing:
        print("error: the checkout lacks %s" % ", ".join(missing), file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    checker = refcheck.Checker(refcheck.load_refs(), json.loads(SCHEMA_PATH.read_text()))
    try:
        if args.trace:
            report = traced_run(args.workload, args.seed, args.seconds, deadline, checker)
            metrics = report["per_layer"]
        else:
            report = timed_run(args.workload, args.seed, args.seconds, deadline, checker)
            metrics = report["end_to_end"]
    except WorkerFailed as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    report = dict(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=machine_facts(), **report)
    print(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": report["correct"], "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
