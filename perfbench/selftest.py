#!/usr/bin/env python3
"""Quick self-test of the benchmark.

    python3 perfbench/selftest.py

Runs the full query session and the traced replay on tso at bound 4
(workload tso4, suite lts-suite-v1:18e1f49b77f081de) through run.py, and
checks that each run is correct and prints every metric BENCHMARK.json
names, with its unit and a positive value. Exits non-zero on the first
problem. Takes about a minute when the benchmark is already built.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def check_run(trace, specs):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "tso4",
           "--seed", "1", "--seconds", "2", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"selftest: run.py --trace {trace} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0:
        problems.append("run not correct: " + proc.stdout)
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(spec["name"] for spec in specs):
        problems.append(f"metric names {sorted(metrics)}")
    for spec in specs:
        m = metrics.get(spec["name"], {})
        value = m.get("value")
        if m.get("unit") != spec["unit"]:
            problems.append(f"{spec['name']}: unit {m.get('unit')!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value) \
                or value <= 0:
            problems.append(f"{spec['name']}: value {value!r}")
    if problems:
        sys.exit(f"selftest: --trace {trace}: " + "; ".join(problems))
    print(f"selftest: --trace {trace}: {len(metrics)} metrics ok")


def main():
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    check_run(0, bench["end_to_end"])
    check_run(1, bench["per_layer"])
    print("selftest: ok")


if __name__ == "__main__":
    main()
