"""Ablation abl-telemetry: the cost of the telemetry emit path.

Mirrors the §2.7 "path tracking is free" ablation (abl-path) for the
telemetry subsystem added on top of the paper: with telemetry *disabled*
(``VirtualMachine(telemetry=False)``) the emit path reduces to one
attribute load + ``is None`` test per allocation and per collection, so the
run must be within noise of the pre-telemetry baseline — and the
deterministic work counters must be *identical*, since telemetry observes
the collector without changing what it does.  With telemetry *enabled* we
pay one histogram record per allocation and one event + census walk per
collection; this ablation bounds that too.
"""

from __future__ import annotations

from benchmarks.conftest import trials
from repro.bench.perf import FEATURES, render_ablation, run_ablation
from repro.runtime.vm import VirtualMachine
from repro.workloads.synthetic import PROFILES, run_synthetic
from repro.workloads.suite import HEAP_BUDGETS

PROFILE = "bloat"  # the GC-heaviest suite member, as in abl-path


def test_telemetry_overhead(once, figure_report):
    result = once(run_ablation, "abl-telemetry", workload=PROFILE, trials=trials())
    figure_report.append(
        render_ablation(result, FEATURES["abl-telemetry"].title)
        + "\n  (disabled mode is the pre-telemetry baseline)"
    )
    # The enabled emit path (begin/end snapshot, histograms, census walk)
    # must stay cheap relative to the collection it observes.
    assert result["ratio"] < 2.0

    # Telemetry observes the collector without perturbing it: every
    # deterministic work counter is identical whether it is on or off.
    assert result["counters_match"]

    # And the enabled run actually produced the observability artifacts.
    on = result["legs"]["on"]
    collections = on["counters"]["collections"]
    assert all(
        e["events"] > 0
        and e["pause_samples"] == collections
        and e["alloc_samples"] > 0
        and e["census_samples"] == collections
        for e in on["extras"]
    )


def test_disabled_mode_is_inert(once):
    """telemetry=False leaves no hub anywhere a hot path could reach."""

    def run():
        vm = VirtualMachine(heap_bytes=HEAP_BUDGETS[PROFILE], telemetry=False)
        run_synthetic(vm, PROFILES[PROFILE])
        return vm

    vm = once(run)
    assert vm.telemetry is None
    assert vm.collector.telemetry is None
