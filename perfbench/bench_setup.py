"""One set-up of a direct workload, run in a fresh interpreter.

Imports the program, builds the seeded inputs, and runs the warm-up
pass; ``run.py`` times this process from start to exit, several times
per run, and reports the median as ``setup_s``.

    python3 perfbench/bench_setup.py --workload suite --seed 0
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from bench_direct import WORKLOAD_RUNS, PassResult, run_program, warmup_runs  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_RUNS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    WORKLOAD_RUNS[args.workload](args.seed)
    warm = PassResult()
    for run in warmup_runs(args.seed):
        run_program(run, warm)
    if warm.failures:
        print("\n".join(warm.failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
