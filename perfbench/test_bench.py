"""Self-tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench/test_bench.py -q
"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import bench_ledger  # noqa: E402
import bench_stats  # noqa: E402
from bench_direct import (  # noqa: E402
    swapleak_expected_collections,
    swapleak_expected_violations,
)

# -- the percentile rule -------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_highest_tail_has_ten_samples_beyond(n, expected):
    assert bench_stats.highest_tail(n) == expected


def test_min_samples_is_the_threshold():
    for pct in bench_stats.PERCENTILE_LADDER:
        n = bench_stats.min_samples(pct)
        assert bench_stats.has_tail(n, pct)
        assert not bench_stats.has_tail(n - 1, pct)
    assert bench_stats.min_samples(90.0) == 100
    assert bench_stats.min_samples(99.0) == 1000


def test_tail_refuses_a_small_sample():
    with pytest.raises(ValueError):
        bench_stats.tail(list(range(99)), 90.0)
    assert bench_stats.tail(list(range(101)), 90.0) == pytest.approx(90.0)


def test_percentile_matches_statistics_inclusive():
    import statistics

    values = [random.Random(4).random() for _ in range(57)]
    quartiles = statistics.quantiles(values, n=4, method="inclusive")
    assert bench_stats.percentile(values, 25) == pytest.approx(quartiles[0])
    assert bench_stats.percentile(values, 75) == pytest.approx(quartiles[2])


# -- self-time arithmetic -----------------------------------------------------------------


def test_self_times_of_a_synthetic_tree():
    # root [0, 10] -> a [1, 6] -> b [2, 4]; root -> c [7, 9]
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 6.0, 0),
        ("b", 2.0, 4.0, 1),
        ("c", 7.0, 9.0, 0),
    ]
    got = bench_ledger.self_times(spans)
    assert got == {"root": 3.0, "a": 3.0, "b": 2.0, "c": 2.0}
    assert sum(got.values()) == 10.0


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_recorder_agrees_with_offline_arithmetic(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(bench_ledger, "_perf", clock)
    recorder = bench_ledger.SpanRecorder()

    def leaf():
        clock.now += 5.0

    def inner():
        clock.now += 2.0
        traced_leaf()
        traced_leaf()

    traced_leaf = recorder.traced("heap.alloc", leaf)
    traced_inner = recorder.traced("runtime.new", inner)
    with recorder.root("request-1") as root:
        traced_inner()
        clock.now += 3.0
        traced_leaf()

    agg = recorder.aggregates()
    offline = bench_ledger.self_times(
        (name, start, end, parent) for name, start, end, parent, *_ in recorder.kept_spans()
    )
    for name, (_count, _total, self_s) in agg.items():
        assert self_s == pytest.approx(offline[name])
    assert agg["heap.alloc"][0] == 3
    layers = bench_ledger.layer_self_times(agg)
    assert sum(layers.values()) == pytest.approx(root.duration)
    assert recorder.aggregates(["other"]) == {}


def test_wrap_and_unwrap_restore_the_original():
    class Thing:
        def method(self):
            return 1

        @classmethod
        def make(cls):
            return cls()

    original = Thing.__dict__["method"]
    recorder = bench_ledger.SpanRecorder()
    recorder.wrap(Thing, "method", "runtime.x")
    recorder.wrap(Thing, "make", "runtime.y")
    with recorder.root():
        assert Thing.make().method() == 1
    assert recorder.aggregates()["runtime.x"][0] == 1
    recorder.unwrap_all()
    assert Thing.__dict__["method"] is original


# -- known answers ---------------------------------------------------------------------


def test_swapleak_formula():
    assert swapleak_expected_violations(32, 8) == 112
    assert swapleak_expected_violations(4000, 64) == 128_992
    assert swapleak_expected_violations(2048, 64) == 35_840
    assert swapleak_expected_collections(32, 8) == 5


def test_swapleak_formula_matches_a_run():
    from repro.runtime.vm import VirtualMachine
    from repro.workloads.swapleak import SwapLeakConfig, run_swapleak

    for swaps, every, static_rep in ((40, 8, False), (37, 6, False), (32, 8, True)):
        vm = VirtualMachine(heap_bytes=1 << 20)
        config = SwapLeakConfig(swaps=swaps, gc_every_swaps=every, static_rep=static_rep)
        result = run_swapleak(vm, config)
        want = 0 if static_rep else swapleak_expected_violations(swaps, every)
        assert result.violations == want
        assert vm.stats.collections == swapleak_expected_collections(swaps, every)


# -- inputs and the benchmark description ----------------------------------------------------


def test_schedule_is_seeded_and_offers_the_nominal_rate():
    import bench_served

    programs = bench_served.load_programs()
    first = bench_served.schedule(random.Random(5), 20.0, 100, programs)
    again = bench_served.schedule(random.Random(5), 20.0, 100, programs)
    assert first == again
    assert first[-1][0] == pytest.approx(100 / 20.0)
    assert {spec.key for _t, spec in first} <= {
        spec.key for spec in bench_served.all_inputs(programs)
    }


def test_benchmark_json_lists_what_the_benchmark_prints():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        doc = json.load(handle)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == bench_ledger.PER_LAYER_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
