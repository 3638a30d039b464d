#!/usr/bin/env python3
"""The repository's benchmark: GC assertions measured end to end and by layer.

    python3 perfbench/run.py --workload {suite,leak-hunt,served} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout (the program is imported from ``src/``).
Each invocation builds its inputs from ``--seed``, sets up, warms up,
measures for about ``--seconds`` seconds, checks every assertion verdict
against a known answer, and prints human-readable notes followed by one
JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (untraced); ``--trace 1``
reports the per-layer ledger from a separate traced run and writes its
spans to ``.perfbench/``.  The exit code is 0 when every verdict was
right, 1 when some were wrong (the result is still printed), and 2 when
the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("suite", "leak-hunt", "served")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "gc_share": "ratio",
    "pause_p50_ms": "ms",
    "req_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_direct(workload: str, seed: int) -> float:
    """Median wall time of fresh-interpreter set-ups (imports, inputs, warm-up)."""
    from bench_stats import BenchmarkError, median

    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "bench_setup.py"),
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up failed: {proc.stderr.strip()[-2000:]}")
    return median(times)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    if workload == "served":
        import bench_served

        return bench_served.measure(seed, seconds, trace, child_env())
    import bench_direct

    setup_s = setup_direct(workload, seed)
    measured = bench_direct.measure(workload, seed, seconds, trace)
    if not trace:
        measured.metrics["setup_s"] = setup_s
        measured.metrics["peak_rss_mb"] = peak_rss_mb()
    return measured


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark still unwinds, so the servers it started stop.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"benchmark: the program is missing (no {SRC}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import bench_ledger
    from bench_stats import BenchmarkError

    try:
        measured = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, ValueError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        units = bench_ledger.PER_LAYER_UNITS
        gap = bench_ledger.ledger_gap(measured.metrics)
        total = measured.metrics["traced_total_s"]
        if abs(gap) > 1e-6 * max(1.0, total):
            print(f"benchmark: ledger does not add up (gap {gap:.3g}s)", file=sys.stderr)
            return 2
        measured.notes.append(
            f"ledger: layer self times + unattributed = {total:.4f}s traced total "
            f"(gap {gap:.2g}s)"
        )
        if measured.recorder is not None:
            os.makedirs(OUT_DIR, exist_ok=True)
            path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
            measured.recorder.write(path, meta={"workload": args.workload, "seed": args.seed})
            measured.notes.append(f"spans written to {os.path.relpath(path, ROOT)}")
    else:
        units = END_TO_END_UNITS
    missing = [name for name in units if name not in measured.metrics]
    if missing:
        print(f"benchmark: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 2

    failed = len(measured.failures)
    attempted = max(measured.attempted, 1)
    for line in measured.notes:
        print(line)
    for problem in measured.failures[:20]:
        print(f"WRONG: {problem}")
    print(f"failed_share: {failed / attempted:.6f} ({failed} of {attempted} operations)")
    for name in units:
        print(f"{name:32s} {measured.metrics[name]:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": measured.metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
