"""Benchmark-harness unit tests: statistics and configuration plumbing."""

import math

import pytest

from repro.bench.methodology import (
    Config,
    Measurement,
    OverheadRow,
    Sample,
    ablate,
    build_vm,
    confidence_interval_90,
    geometric_mean,
    mean,
    run_sample,
    run_trial,
)
from repro.workloads.suite import SuiteEntry, build_suite


class TestStatistics:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([2.0, 2.0, 2.0]) == pytest.approx(2.0)

    def test_geometric_mean_ignores_nonpositive(self):
        assert geometric_mean([0.0, 4.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0

    def test_ci_zero_for_tiny_samples(self):
        assert confidence_interval_90([]) == 0.0
        assert confidence_interval_90([1.0]) == 0.0

    def test_ci_zero_for_constant_samples(self):
        assert confidence_interval_90([2.0, 2.0, 2.0]) == pytest.approx(0.0)

    def test_ci_scales_with_spread(self):
        tight = confidence_interval_90([1.0, 1.01, 0.99, 1.0])
        wide = confidence_interval_90([1.0, 2.0, 0.5, 1.5])
        assert wide > tight > 0

    def test_ci_shrinks_with_more_samples(self):
        few = confidence_interval_90([1.0, 2.0])
        many = confidence_interval_90([1.0, 2.0] * 8)
        assert many < few


class TestOverheadRow:
    def test_ratio_and_pct(self):
        row = OverheadRow("x", 2.0, 2.2, 0.0, 0.0, {}, {})
        assert row.ratio == pytest.approx(1.1)
        assert row.overhead_pct == pytest.approx(10.0)

    def test_zero_base_is_nan(self):
        row = OverheadRow("x", 0.0, 1.0, 0.0, 0.0, {}, {})
        assert math.isnan(row.ratio)


class TestConfigurations:
    def test_base_vm_has_no_infrastructure(self):
        entry = build_suite()["jess"]
        vm = build_vm(entry, Config.BASE)
        assert vm.engine is None
        assert not vm.collector.track_paths
        assert vm.collector.heap_bytes == entry.heap_bytes

    def test_infrastructure_vm_has_engine_and_paths(self):
        entry = build_suite()["jess"]
        vm = build_vm(entry, Config.INFRASTRUCTURE)
        assert vm.engine is not None
        assert vm.collector.track_paths

    def test_with_assertions_requires_asserted_runner(self):
        entry = build_suite()["jess"]  # no asserted variant
        with pytest.raises(ValueError):
            run_trial(entry, Config.WITH_ASSERTIONS)


class TestTrials:
    def test_run_trial_returns_measurement(self):
        entry = build_suite()["mpegaudio"]
        m = run_trial(entry, Config.BASE)
        assert isinstance(m, Measurement)
        assert m.total_s > 0
        assert m.gc_s >= 0
        assert m.mutator_s <= m.total_s
        assert m.counters["collections"] == m.collections

    def test_counters_deterministic_across_trials(self):
        entry = build_suite()["mpegaudio"]
        a = run_trial(entry, Config.BASE)
        b = run_trial(entry, Config.BASE)
        assert a.counters == b.counters

    def test_run_sample_collects_n(self):
        entry = build_suite()["mpegaudio"]
        sample = run_sample(entry, Config.BASE, trials=3, warmup=0)
        assert len(sample.measurements) == 3
        assert len(sample.totals()) == 3
        assert sample.mean_total() > 0

    def test_sample_counters_from_last_trial(self):
        entry = build_suite()["mpegaudio"]
        sample = run_sample(entry, Config.BASE, trials=2, warmup=0)
        assert sample.counters() == sample.measurements[-1].counters

    def test_empty_sample_counters(self):
        sample = Sample("x", Config.BASE)
        assert sample.counters() == {}


class _FakeLeg:
    """A leg with scripted timings and counters that logs every call."""

    def __init__(self, name, calls, seconds, counters=None):
        self.name = name
        self.calls = calls
        self.seconds = list(seconds)
        self.counters = counters or [{"objects": 10}] * len(self.seconds)
        self.trial = 0

    def __call__(self):
        self.calls.append(self.name)
        i = self.trial
        self.trial += 1
        return self.seconds[i], dict(self.counters[i]), {"trial": i}


class TestAblate:
    def _legs(self, off_seconds, on_seconds, on_counters=None):
        calls = []
        legs = {
            "off": _FakeLeg("off", calls, off_seconds),
            "on": _FakeLeg("on", calls, on_seconds, on_counters),
        }
        return legs, calls

    def test_first_leg_alternates_between_rounds(self):
        legs, calls = self._legs([1.0] * 4, [1.0] * 4)
        result = ablate("x", legs, workload="w", trials=4, basis="gc")
        assert calls == ["off", "on", "on", "off", "off", "on", "on", "off"]
        assert result["first_legs"] == ["off", "on", "off", "on"]

    def test_reports_mean_ci90_and_ratio_of_means(self):
        off = [1.0, 1.2, 0.8]
        on = [2.0, 2.5, 1.5]
        legs, _calls = self._legs(off, on)
        result = ablate("x", legs, workload="w", trials=3, basis="wall")
        assert result["legs"]["off"]["mean_s"] == pytest.approx(mean(off))
        assert result["legs"]["on"]["mean_s"] == pytest.approx(mean(on))
        assert result["legs"]["off"]["ci90_s"] == confidence_interval_90(off)
        assert result["legs"]["on"]["ci90_s"] == confidence_interval_90(on)
        assert result["legs"]["on"]["seconds"] == on
        assert result["ratio"] == pytest.approx(mean(on) / mean(off))
        assert (result["workload"], result["basis"], result["trials"]) == ("w", "wall", 3)
        assert result["counters_match"]

    def test_one_drifting_trial_breaks_counters_match(self):
        # The best (fastest) trial of each leg agrees; a slower one does not.
        counters = [{"objects": 10}, {"objects": 11}, {"objects": 10}]
        legs, _calls = self._legs([1.0] * 3, [0.5, 2.0, 3.0], counters)
        result = ablate("x", legs, workload="w", trials=3, basis="gc")
        assert not result["counters_match"]
        assert result["legs"]["on"]["counters"] == {"objects": 10}

    def test_keeps_every_trials_extras(self):
        legs, _calls = self._legs([1.0] * 3, [1.0] * 3)
        result = ablate("x", legs, workload="w", trials=3, basis="gc")
        assert result["legs"]["on"]["extras"] == [{"trial": 0}, {"trial": 1}, {"trial": 2}]

    def test_exactly_two_legs(self):
        with pytest.raises(ValueError):
            ablate("x", {"only": lambda: (1.0, {}, {})}, workload="w", trials=1, basis="gc")
