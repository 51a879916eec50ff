"""One replication of one workload, in a fresh interpreter.

run.py starts this script once per replication and reads the JSON line it
prints last.  Set-up is timed from the moment run.py spawned the process
(``--spawned``, a ``time.monotonic`` reading, which is one clock for every
process on Linux): interpreter start, imports, input generation and, for
``queries``, the warm-up pass.  The timed phase runs the workload's
operations in order, one caller, closed loop.  Checks and output hashing come
after it, so they neither add to the timed work nor warm its caches.

Slices of the calibration kernel (calibrate.py) run right before the first
operation and after every SLICE_EVERY_S of operation time.  They fall between
operations, outside every latency, and the timed phase's wall time is the
sum of the operation latencies, so their own time is left out of every
figure.
"""

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_library():
    sys.path.insert(0, str(SRC))
    import poissonenv

    if not Path(poissonenv.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"poissonenv imported from {poissonenv.__file__}, not {SRC}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    _import_library()
    import calibrate
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.spawned

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        before = tracing.cache_sizes()

    results = []
    lat = []
    errors = {}
    slices = [[-1, calibrate.slice_s()] for _ in range(calibrate.READY_SLICES)]
    since = 0.0
    for i, op in enumerate(wl.ops):
        t = perf_counter()
        try:
            if tracer is None:
                res = op.fn(*op.args)
            else:
                tracer.tag = op.tag
                res = tracer.op(op.kind, op.fn, *op.args)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            res = None
            errors[i] = repr(exc)
        lat.append(perf_counter() - t)
        results.append(res)
        since += lat[-1]
        if since >= calibrate.SLICE_EVERY_S:
            slices.append([i, calibrate.slice_s()])
            since = 0.0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out = {
        "setup_s": setup_s,
        "wall_s": sum(lat),
        "peak_rss_mb": peak_rss_mb,
        "lat": lat,
        "slices": slices,
        "errors": {str(i): msg for i, msg in errors.items()},
        "op_counts": {},
    }
    for op in wl.ops:
        out["op_counts"][op.kind] = out["op_counts"].get(op.kind, 0) + 1
    if tracer is not None:
        out["layers"] = tracing.per_layer(tracer, before, tracing.cache_sizes())
        out["spans"] = tracing.span_totals(tracer)

    # -- after the timed phase ------------------------------------------------
    if args.check:
        out["bad"] = wl.check(results)  # skips the ops that raised
        out["extra_error"] = wl.extra_check()
    hashes = []
    for op, res in zip(wl.ops, results):
        text = "" if res is None else wl.canonical(op, res)
        hashes.append(hashlib.sha256(f"{op.kind}\n{text}".encode()).hexdigest()[:16])
    out["hashes"] = hashes
    out["digest"] = hashlib.sha256("\n".join(hashes).encode()).hexdigest()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
