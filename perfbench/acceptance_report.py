"""One-shot acceptance timing report (not a gated workload).

    python3 perfbench/acceptance_report.py

Each acceptance check runs through ``acceptance.run([name])`` in its own
fresh interpreter, so its caches start cold, as they do for a user of
``poissonenv verify --suite``.  Prints one line per check (seconds, pass
flag, peak RSS) and writes perfbench/results/acceptance.json with the
machine, Python and commit.  The whole suite takes minutes, too long to
repeat for every benchmark run.
"""

import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import run

CHILD_TIMEOUT_S = 900


def child(name):
    sys.path.insert(0, str(run.ROOT / "src"))
    from poissonenv import acceptance

    start = time.perf_counter()
    (result,) = acceptance.run([name])
    seconds = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"name": name, "seconds": seconds, "passed": result.passed,
                      "detail": result.detail, "peak_rss_mb": peak}))


def main():
    sys.path.insert(0, str(run.ROOT / "src"))
    from poissonenv import acceptance

    names = sorted(name for name, _ in acceptance.ALL_CHECKS)
    rows = []
    for name in names:
        proc = subprocess.run([sys.executable, __file__, "--child", name],
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            rows.append({"name": name, "passed": False, "error": proc.stderr[-2000:]})
            print(f"{name}  ERROR")
            continue
        row = json.loads(proc.stdout.splitlines()[-1])
        rows.append(row)
        print(f"{name:30s} {row['seconds']:8.2f} s  {'PASS' if row['passed'] else 'FAIL'}"
              f"  {row['peak_rss_mb']:6.1f} MB")
    report = {"machine": run.machine(), "commit": run.commit(), "checks": rows}
    out_dir = Path(run.HERE / "results")
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / "acceptance.json", "w") as fp:
        json.dump(report, fp, indent=1)
    return 0 if all(row["passed"] for row in rows) else 3


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2])
    else:
        sys.exit(main())
