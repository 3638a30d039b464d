"""Hot-path perf gate: trace loop, allocation fast path, lazy sweep pauses.

Regenerates ``BENCH_perf.json`` (the committed perf record, schema
``repro-bench-perf/1``) and checks the claims behind the hot-path overhaul:

* the specialized fused drain traces edges faster than the generic
  per-edge loop, over the *same* heap with *identical* work counters;
* the run-cache fast path serves the vast majority of small allocations;
* lazy sweeping ends the pause at mark end, so pauses shrink while the
  reclaimed set stays exactly the same.

Timing thresholds are deliberately lenient (CI machines are noisy); the
counter-identity assertions are exact — those are the correctness gate.
"""

from __future__ import annotations

from benchmarks.conftest import full_scale
from repro.bench import (
    bench_alloc,
    bench_pauses,
    bench_trace,
    dump_perf,
    perf_payload,
)


def test_trace_specialization_speedup(once):
    result = once(bench_trace, n_nodes=8_000, trials=3)
    assert result["counters_match"], "drain variants disagree on work done"
    assert result["generic"]["edges_traced"] > 0
    # Lenient floor; the committed BENCH_perf.json records the real ratio.
    assert result["speedup"] > 1.05
    # The cheap path API saw real depths during the instrumented pass.
    assert result["path_probe"]["max_depth"] > 0


def test_alloc_fast_path_hit_rate(once):
    result = once(bench_alloc, n_allocs=20_000, trials=2)
    # Small-object allocation should be served by the run cache almost
    # always (one refill per RUN_CACHE_CELLS allocations).
    assert result["fast_hit_rate"] > 0.9
    assert result["cached"]["alloc_fast_hits"] > 0


def test_lazy_sweep_shrinks_pauses_with_identical_work(once):
    results = once(bench_pauses, ("pseudojbb",))
    row = results["pseudojbb"]
    assert row["counters_match"], "eager and lazy reclaimed different sets"
    # Mark-only pauses must not exceed mark+sweep pauses; allow slack for
    # timer noise on sub-millisecond pauses.
    assert row["pause_p99_ratio"] < 1.1
    # The sweep work did not vanish — it moved out of the pause.
    assert row["lazy"]["lazy_sweep_seconds"] > 0


def test_regenerate_bench_perf_json(once):
    payload = once(perf_payload, quick=not full_scale())
    assert payload["counters_match"]
    path = dump_perf(payload)
    assert path == "BENCH_perf.json"
