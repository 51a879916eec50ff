"""poissonenv benchmark: seeded exact-algebra workloads.

    python3 perfbench/run.py --workload star --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table

Workloads (see workloads.py for why each one exists):
    star       cold star products, pair total degree 2..6, 3 generators
    window     windowed commutator filtrations of Q^(d) over a fixed sweep
    presented  envelopes and structure-constant algebras of quadric presentations
    queries    a warm session: parse -> operation -> JSON over a Zipf-skewed pool

The library is imported from ``src/`` next to this directory; nothing is
installed.  Every replication is a fresh interpreter (worker.py), because the
library's memo caches are module-level and cannot be cleared from outside,
and a command-line user pays them cold in every process.  A run makes a fixed
number of replications, one at a time: ``--seconds`` divided by the
workload's nominal replication length (REP_SECONDS), rounded to an odd count
of at least MIN_REPS.  The count does not depend on how fast the code runs,
so neither do the estimators below; only a replication so slow that the next
one would end past RUN_LIMIT_S cuts the run short.  The first replication
also checks every result by an independent identity; every later one must
reproduce its outputs hash for hash.  Seed 1 must also reproduce the digest
in digests.json.

Every time is scaled to the reference speed of the calibration kernel
(calibrate.py): each operation's latency by the slices of the kernel around
it, set-up by the slices right after it.  The speed of a shared machine
drifts more, within a run and between runs, than any gate could allow; the
scaled times follow the library's speed relative to a fixed kernel, which
does not drift with it.  The report prints the unscaled wall time and the
median slice next to the gated figures.  With ``--trace 0``:
    wall_s       median across replications of the timed phase (the sum of
                 its operations' latencies)
    ops_per_s    operations per replication / wall_s
    op_p50_ms, op_p90_ms, op_p99_ms
                 nearest-rank percentiles over the operations of each one's
                 median latency across replications; the report line states
                 how many operations lie beyond.  Every replication runs the
                 same operations, so the median keeps what an operation costs
                 and drops the one-off stalls of a shared machine; pooled
                 latencies would put the tail among the few costly
                 operations' stalls.
    setup_s      median across replications of interpreter start -> ready
    peak_rss_mb  median across replications of the peak RSS after the
                 timed phase (not scaled)
The failure ratio is the JSON line's ``failed`` / ``attempted``, also printed
as ``fail_ratio`` with both counts.

With ``--trace 1`` replications alternate between untraced and traced; the
per-layer metrics of tracing.py come from the traced replication with the
median wall_s, their times scaled by that replication's scaled / unscaled
wall_s, and ``trace.overhead_s`` is the median traced wall_s minus the median
untraced one.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  A result file with the machine, Python, commit, seed and
operation counts goes to perfbench/results/.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("star", "window", "presented", "queries")
MIN_REPS = 3
# nominal length of one replication (spawn, set-up, timed phase, hashing),
# measured on a 2-vCPU x86-64 VM under Python 3.11; it only sizes the run
REP_SECONDS = {"star": 2.2, "window": 1.5, "presented": 2.0, "queries": 4.0}
DEFAULT_SEED = 1
RUN_LIMIT_S = 170  # a run must end within 180 s, whatever --seconds says
END_TO_END = [
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


class BenchError(Exception):
    pass


def run_worker(workload, seed, trace, check, timeout):
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--check", str(check),
           "--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} replication ran past the {RUN_LIMIT_S} s limit") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} replication failed:\n{proc.stderr[-3000:]}")
    rep = json.loads(proc.stdout.splitlines()[-1])
    rep["scaled_lat"] = calibrate.scaled(rep["lat"], rep["slices"])
    rep["scaled_wall_s"] = sum(rep["scaled_lat"])
    rep["scaled_setup_s"] = rep["setup_s"] * calibrate.ready_factor(rep["slices"])
    rep["slice_median_s"] = statistics.median(s for _, s in rep["slices"])
    return rep


def op_latencies(reps):
    """Each operation's median scaled latency across the replications."""
    return [statistics.median(lats) for lats in zip(*(rep["scaled_lat"] for rep in reps))]


def percentile(values, p):
    """Nearest-rank percentile, and how many values lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def count_failures(reps):
    """Failed operations: raised in any replication, failed its check in the
    checked (first) one, or hashed differently from it in a later one."""
    ref = reps[0]
    failed = len(ref["errors"]) + len(ref["bad"])
    for rep in reps[1:]:
        failed += sum(1 for i, (a, b) in enumerate(zip(rep["hashes"], ref["hashes"]))
                      if a != b or str(i) in rep["errors"])
    return failed


def replication_count(workload, seconds):
    """Odd, so that the median is a measured replication."""
    return max(MIN_REPS, round(seconds / REP_SECONDS[workload])) | 1


def median_rep(reps):
    """The replication with the median wall_s (the lower one of an even count)."""
    return sorted(reps, key=lambda rep: rep["scaled_wall_s"])[(len(reps) - 1) // 2]


def end_to_end(reps):
    n_ops = len(reps[0]["lat"])
    wall = statistics.median(rep["scaled_wall_s"] for rep in reps)
    lats = op_latencies(reps)
    p50, _ = percentile(lats, 50)
    p90, beyond90 = percentile(lats, 90)
    p99, beyond99 = percentile(lats, 99)
    metrics = {
        "wall_s": wall,
        "ops_per_s": n_ops / wall,
        "op_p50_ms": p50 * 1e3,
        "op_p90_ms": p90 * 1e3,
        "op_p99_ms": p99 * 1e3,
        "setup_s": statistics.median(rep["scaled_setup_s"] for rep in reps),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
    }
    beyond = {"op_p90_ms": beyond90, "op_p99_ms": beyond99}
    return metrics, beyond


def recorded_digest(workload):
    with open(HERE / "digests.json") as fp:
        return json.load(fp)["seed_" + str(DEFAULT_SEED)].get(workload)


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "implementation":
            platform.python_implementation(), "cpu": cpu, "nproc": os.cpu_count()}


def commit():
    """HEAD of the checkout if it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(workload, seed, seconds, trace):
    """Run the replications of one workload; returns the report."""
    limit = time.monotonic() + RUN_LIMIT_S
    plain, traced, durations = [], [], []
    for _ in range(replication_count(workload, seconds)):
        # only code several times slower than nominal gets here early
        if durations and time.monotonic() + max(durations) > limit:
            break
        start = time.monotonic()
        if not plain:
            plain.append(run_worker(workload, seed, 0, 1, limit - start))
        elif trace and len(traced) < len(plain):
            traced.append(run_worker(workload, seed, 1, 0, limit - start))
        else:
            plain.append(run_worker(workload, seed, 0, 0, limit - start))
        durations.append(time.monotonic() - start)
    reps = plain + traced
    failed = count_failures(reps)
    problems = [f"op {i}: {msg}" for i, msg in reps[0]["errors"].items()]
    problems += [f"op {i}: result fails its check" for i in reps[0]["bad"]]
    if reps[0]["extra_error"]:
        problems.append(reps[0]["extra_error"])
    digest = reps[0]["digest"]
    digest_ok = None
    if seed == DEFAULT_SEED:
        digest_ok = digest == recorded_digest(workload)
        if not digest_ok:
            problems.append(f"digest {digest} differs from the recorded one")
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine(),
        "commit": commit(),
        "replications": {"plain": len(plain), "traced": len(traced)},
        "op_counts": reps[0]["op_counts"],
        "attempted": sum(len(rep["lat"]) for rep in reps),
        "failed": failed,
        "correct": failed == 0 and not problems,
        "problems": problems[:20],
        "digest": digest,
        "digest_matches_recorded": digest_ok,
        "per_replication": [{k: rep[k] for k in (
            "setup_s", "wall_s", "scaled_setup_s", "scaled_wall_s", "slice_median_s",
            "peak_rss_mb")} for rep in reps],
        "unscaled": {
            "wall_s": statistics.median(rep["wall_s"] for rep in plain),
            "setup_s": statistics.median(rep["setup_s"] for rep in plain),
            "slice_median_s": statistics.median(rep["slice_median_s"] for rep in plain),
        },
    }
    metrics, beyond = end_to_end(plain)
    report["end_to_end"] = metrics
    report["ops_beyond"] = beyond
    report["ops_per_replication"] = len(plain[0]["lat"])
    if trace:
        middle = median_rep(traced)
        factor = middle["scaled_wall_s"] / middle["wall_s"]
        timed = {name for name, unit, _ in tracing.per_layer_spec() if unit == "s"}
        layers = {name: value * factor if name in timed else value
                  for name, value in middle["layers"].items()}
        report["span_totals"] = middle["spans"]
        layers["trace.overhead_s"] = (statistics.median(rep["scaled_wall_s"] for rep in traced)
                                      - metrics["wall_s"])
        report["per_layer"] = layers
    return report


def write_result(report):
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    name = f"{report['workload']}-seed{report['seed']}-trace{report['trace']}.json"
    with open(out_dir / name, "w") as fp:
        json.dump(report, fp, indent=1)


def print_report(report):
    w = report["workload"]
    print(f"# {w}: seed {report['seed']}, {report['ops_per_replication']} ops per "
          f"replication, replications {report['replications']}, "
          f"commit {report['commit'][:12]}, {report['machine']['cpu']}, "
          f"nproc {report['machine']['nproc']}, Python {report['machine']['python']}")
    print(f"{w} fail_ratio {report['failed']}/{report['attempted']} = "
          f"{report['failed'] / report['attempted']:.6f}")
    print(f"{w} digest {report['digest'][:16]} "
          f"(matches recorded: {report['digest_matches_recorded']})")
    for problem in report["problems"]:
        print(f"{w} PROBLEM {problem}")
    if report["trace"]:
        for name, unit, _ in tracing.per_layer_spec():
            print(f"{w} {name} {report['per_layer'][name]:.6g} {unit}")
        return
    for name, unit in END_TO_END:
        extra = ""
        if name in report["ops_beyond"]:
            extra = f"  ({report['ops_beyond'][name]} operations beyond)"
        print(f"{w} {name} {report['end_to_end'][name]:.6g} {unit}{extra}")
    raw = report["unscaled"]
    print(f"{w} unscaled wall_s {raw['wall_s']:.6g} s, setup_s {raw['setup_s']:.6g} s; "
          f"calibration slice {raw['slice_median_s'] * 1e3:.4g} ms, reference "
          f"{calibrate.REFERENCE_S * 1e3:.4g} ms (ungated)")


def result_line(report):
    if report["trace"]:
        metrics = {name: {"value": report["per_layer"][name], "unit": unit}
                   for name, unit, _ in tracing.per_layer_spec()}
    else:
        metrics = {name: {"value": report["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "poissonenv" / "__init__.py").is_file():
        print(f"error: no poissonenv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    try:
        for name in names:
            report = run_workload(name, args.seed, args.seconds, args.trace)
            write_result(report)
            print_report(report)
            lines[name] = result_line(report)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(lines) == 1:
        final = lines[args.workload]
    else:
        final = {
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {f"{w}.{k}": v for w, line in lines.items()
                        for k, v in line["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
