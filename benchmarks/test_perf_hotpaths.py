"""Hot-path perf gate: trace loop, allocation fast path, lazy sweep pauses.

Builds a quick ``BENCH_perf.json``-shaped record (schema
``repro-bench-perf/1``) in a temporary directory — the committed record is
regenerated on purpose with ``python -m repro bench``, never by a test run
— and checks the claims behind the hot-path overhaul:

* the three fused drains (plain, paths, paths+engine) and the general
  drain under a path probe do *identical* work over the same heap;
* the run-cache fast path serves the vast majority of small allocations;
* lazy sweeping ends the pause at mark end, so pauses shrink while the
  reclaimed set stays exactly the same.

Timing thresholds are deliberately lenient (CI machines are noisy); the
counter-identity assertions are exact — those are the correctness gate.
"""

from __future__ import annotations

import json

from benchmarks.conftest import full_scale
from repro.bench import (
    bench_alloc,
    bench_pauses,
    bench_trace,
    dump_perf,
    perf_payload,
)


def test_fused_drains_agree_on_work(once):
    result = once(bench_trace, n_nodes=8_000)
    assert result["counters_match"], "drain variants disagree on work done"
    assert result["drains"]["plain"]["edges_traced"] > 0
    # The cheap path API saw real depths during the instrumented pass.
    assert result["path_probe"]["max_depth"] > 0


def test_alloc_fast_path_hit_rate(once):
    result = once(bench_alloc, n_allocs=20_000, trials=2)
    # Small-object allocation should be served by the run cache almost
    # always (one refill per RUN_CACHE_CELLS allocations).
    assert result["fast_hit_rate"] > 0.9
    assert result["counters_match"]


def test_lazy_sweep_shrinks_pauses_with_identical_work(once):
    results = once(bench_pauses, ("pseudojbb",))
    row = results["pseudojbb"]
    assert row["counters_match"], "eager and lazy reclaimed different sets"
    # Mark-only pauses must not exceed mark+sweep pauses; allow slack for
    # timer noise on sub-millisecond pauses.
    assert row["pause_p99_ratio"] < 1.1
    # The sweep work did not vanish — it moved out of the pause.
    assert row["lazy"]["lazy_sweep_seconds"] > 0


def test_regenerate_bench_perf_json(once, tmp_path):
    payload = once(perf_payload, quick=not full_scale())
    assert payload["counters_match"]
    path = tmp_path / "BENCH_perf.json"
    assert dump_perf(payload, str(path)) == str(path)
    assert json.loads(path.read_text())["schema"] == "repro-bench-perf/1"
