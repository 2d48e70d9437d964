#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload scc4 --seed 3 --seconds 10 --trace 0

Run from the root of a checkout. The script builds perfbench/ltsbench and
the libraries it measures from the checkout's sources into .bench_build/,
runs the workload in processes of its own with fresh stores under
.bench_build/tmp/ (removed afterwards), and checks every answer against
the suite digest pinned in BENCHMARK.json.

--trace 0 runs the untraced query session and reports the end-to-end
metrics of BENCHMARK.json; --trace 1 runs the engine once for reference
and then the traced replay, and reports the per-layer metrics. Progress,
the run environment and any failures go to earlier lines; the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. The script exits non-zero, printing no result, when
the program cannot be built or run.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_build"
BUILD_DIR = WORK_DIR / "perfbench"
BINARY = BUILD_DIR / "ltsbench"

# Workload -> (registry model, largest size). Sizes start at 2. The
# pinned union-suite digest of a workload listed in BENCHMARK.json is
# read from its "why"; tso4 is the self-test's workload (selftest.py),
# so its digest is pinned here.
WORKLOADS = {
    "tso6": ("tso", 6, None),
    "scc4": ("scc", 4, None),
    "tso4": ("tso", 4, "lts-suite-v1:18e1f49b77f081de"),
}
DIGEST_RE = re.compile(r"lts-suite-v1:[0-9a-f]{16}")

# Cold processes per session, and restart processes after each (see
# run_session).
SESSION_STEPS = 3
RESTART_PROCESSES = 4

# Candidate tail percentiles, highest first (see tail).
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)

BUILD_TIMEOUT_S = 840
# Every measuring process of one run must finish within this budget.
RUN_BUDGET_S = 170
deadline = None


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_checked(cmd, timeout, env=None):
    """Run cmd in its own process group and return its stdout. On a
    timeout the whole group is killed and reaped before failing."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out after {timeout}s: {' '.join(map(str, cmd))}")
    if proc.returncode != 0:
        sys.stderr.write(out[-4000:])
        sys.stderr.write(err[-4000:])
        fail(f"exit status {proc.returncode}: {' '.join(map(str, cmd))}")
    return out


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no program sources under src/ in this checkout")
    tmp = WORK_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_checked(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", str(BUILD_DIR), "--target", "ltsbench",
                 "--parallel", jobs], BUILD_TIMEOUT_S, env)


def run_step(step):
    """Run one ltsbench step within the run's budget; return its JSON."""
    out = run_checked([str(BINARY), *step],
                      max(1.0, deadline - time.monotonic()))
    return json.loads(out.strip().splitlines()[-1])


def pinned_digest(bench, workload):
    digest = WORKLOADS[workload][2]
    if digest:
        return digest
    for entry in bench["workloads"]:
        if entry["name"] == workload:
            found = DIGEST_RE.findall(entry["why"])
            if len(found) == 1:
                return found[0]
    fail(f"BENCHMARK.json pins no suite digest for {workload}")


def tail(samples):
    """The highest of TAIL_PERCENTILES with at least ten samples beyond
    it (nearest rank), and that percentile; the maximum when there are
    too few samples. A fixed ladder keeps the percentile the same from
    run to run, where n - 10 of n samples would track the sample count
    into the last few outliers."""
    s = sorted(samples)
    n = len(s)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(n * p / 100)
        if n - rank >= 10:
            return s[rank - 1], p
    return s[-1], 100.0


def run_session(args, step_args, work):
    """The untraced session: SESSION_STEPS cold processes, each on its own
    empty store, each followed by RESTART_PROCESSES restart processes
    over the first populated store; the restart processes share
    --seconds. Short processes spread over the run sample more of the
    slow and fast phases of a shared machine. Returns (colds, restarts)."""
    colds, restarts = [], []
    per_process = args.seconds / (SESSION_STEPS * RESTART_PROCESSES)
    for i in range(SESSION_STEPS):
        store = work / f"cold{i}"
        store.mkdir()
        colds.append(run_step(["cold", *step_args, f"--store={store}"]))
        for _ in range(RESTART_PROCESSES):
            restarts.append(run_step([
                "restarts", *step_args, f"--store={colds[0]['store']}",
                f"--seconds={per_process}"]))
    return colds, restarts


def session_values(colds, restarts):
    def per_step(steps, key):
        return [statistics.median(s[key]) for s in steps if s[key]]

    def pooled(steps, key):
        return [x for s in steps for x in s[key]]

    if not (all(c["cold_s"] for c in colds) and
            all(r["restart_ms"] and r["resident_ms"] for r in restarts)):
        return {}
    restart_ms = pooled(restarts, "restart_ms")
    resident_ms = pooled(restarts, "resident_ms")
    restart_tail, percentile = tail(restart_ms)
    print(f"cold_s per process: {[c['cold_s'][0] for c in colds]}; "
          f"restart_ms_tail: p{percentile:.1f} of {len(restart_ms)} "
          f"restarts; resident_ms: {statistics.median(resident_ms)} over "
          f"{len(resident_ms)} repeats; setup_s: "
          f"{len(pooled(colds, 'setup_s'))} set-ups")
    # One cold query per process, so its timings and peak RSS are
    # medians over processes; restarts and repeats are pooled.
    return {
        "setup_s": statistics.median(per_step(colds, "setup_s")),
        "cold_s": statistics.median(per_step(colds, "cold_s")),
        "cold_cpu_s": statistics.median(per_step(colds, "cold_cpu_s")),
        "restart_ms": statistics.median(restart_ms),
        "restart_ms_tail": restart_tail,
        "resident_ms": statistics.median(resident_ms),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in colds),
    }


def trace_values(raw):
    print(f"key bytes by size (from 2): {raw['key_bytes_by_size']}")
    print(f"engine reference: {raw['engine']['conflicts']} conflicts, "
          f"{raw['engine']['instances']} instances; "
          f"replay wall {raw['layers'].get('trace.wall_s', 0):.3f}s")
    return raw["layers"]


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_rev():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    model, max_size, _ = WORKLOADS[args.workload]
    step_args = [f"--model={model}", f"--max-size={max_size}",
                 f"--digest={pinned_digest(bench, args.workload)}"]
    build()

    global deadline
    deadline = time.monotonic() + RUN_BUDGET_S
    work = WORK_DIR / "tmp" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            steps = [run_step(["trace", *step_args, f"--store={work}"])]
            values = trace_values(steps[0])
        else:
            colds, restarts = run_session(args, step_args, work)
            values = session_values(colds, restarts)
            steps = colds + restarts
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = dict(steps[0]["env"], git_rev=git_rev(),
               source_digest=source_digest(), nproc=os.cpu_count(),
               workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace)
    print("env " + json.dumps(env, sort_keys=True))
    specs = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for spec in specs:
        if spec["name"] in values:
            metrics[spec["name"]] = {"value": values[spec["name"]],
                                     "unit": spec["unit"]}
        else:
            print(f"failure: metric {spec['name']} was not measured")
    attempted = sum(s["attempted"] for s in steps)
    failed = sum(s["failed"] for s in steps)
    for step in steps:
        for error in step["errors"]:
            print(f"failure: {error}")
    print(f"fail_frac: {failed}/{attempted}")
    correct = failed == 0 and attempted > 0 and len(metrics) == len(specs)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
