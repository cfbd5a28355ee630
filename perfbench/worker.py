"""One benchmark worker process: import the package, run a batch in-process.

    python3 perfbench/worker.py --root CHECKOUT --mode setup|batch|traced

The worker imports ``isingmaps.cli`` from ``CHECKOUT/src`` and refuses to run
if the import resolves anywhere else.  In ``setup`` mode it times a few probe
kernels (speedprobe.py) right after the import and exits.  Otherwise it reads
a JSON list of CLI argument lists from stdin and calls ``cli.main`` on each in
turn, one after another, capturing each envelope.  ``batch`` mode samples
the host's speed during and around each operation; ``traced`` mode instead
wraps the layer functions (see layertrace.py), so no probe runs inside a
span.  The result is one JSON object on stdout; every time in it is from
``time.monotonic`` or ``time.perf_counter``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

import speedprobe


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--mode", choices=("setup", "batch", "traced"), required=True)
    args = parser.parse_args()

    src = os.path.realpath(os.path.join(args.root, "src"))
    sys.path.insert(0, src)
    from isingmaps import cli
    ready = time.monotonic()
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print("isingmaps was imported from %s, not from %s" % (cli.__file__, src),
              file=sys.stderr)
        return 3
    if args.mode == "setup":
        json.dump({"ready": ready, "probe": [speedprobe.kernel()
                                             for _ in range(2 * speedprobe.BRACKET)]},
                  sys.stdout)
        return 0

    ops = json.load(sys.stdin)
    tracer = caches = None
    absent = []
    probe = speedprobe.Probe() if args.mode == "batch" else None
    if args.mode == "traced":
        import layertrace
        tracer = layertrace.Tracer()
        absent = layertrace.install(tracer)
        caches = layertrace.find_caches()

    records = []
    start = time.perf_counter()
    for argv in ops:
        before = layertrace.cache_counts(caches) if tracer else None
        out = io.StringIO()
        error = None
        lead = probe.start() if probe else []
        op_start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crashing op is a failed op; the batch goes on
            code, error = None, "%s: %s" % (type(exc).__name__, exc)
        seconds = time.perf_counter() - op_start
        trail = probe.stop() if probe else []
        if tracer:
            layertrace.add_cache_deltas(tracer, before, layertrace.cache_counts(caches))
        records.append({"argv": argv, "code": code, "stdout": out.getvalue(),
                        "error": error, "seconds": seconds,
                        "probe": {"inside": probe.inside, "around": lead + trail}
                        if probe else None})
    wall = time.perf_counter() - start

    result = {"ready": ready, "wall_s": wall, "ops": records,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        result.update(spans=tracer.report(), counters=tracer.counters, absent=absent,
                      caches=sorted(caches))
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
