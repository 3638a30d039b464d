"""Ablation abl-monitor: the standing cost of the continuous-monitoring hub.

The monitoring layer's acceptance bar: a hub with the full stock SLO
catalog attached must price in at no more than ~5% of GC time over the
same VM running telemetry alone.  The hub is one extra sink on the
per-collection fan-out — time-series appends, one MMU evaluation, and
five SLO probes per collection; nothing per allocation or per traced
object.  Every deterministic work counter must be bit-identical: the hub
observes collections, it must never change them.
"""

from __future__ import annotations

from benchmarks.conftest import trials
from repro.bench.perf import FEATURES, render_ablation, run_ablation
from repro.runtime.vm import VirtualMachine
from repro.workloads.suite import HEAP_BUDGETS
from repro.workloads.synthetic import PROFILES, run_synthetic

PROFILE = "bloat"  # the GC-heaviest suite member, as in abl-tracing

#: Wall-clock bound, with headroom over the ~1.05 acceptance target for
#: interpreter jitter on loaded CI machines.  The counter-identity
#: assertion is the hard gate.
MAX_GC_TIME_RATIO = 1.5


def test_monitor_hub_overhead(once, figure_report):
    result = once(run_ablation, "abl-monitor", workload=PROFILE, trials=trials())
    figure_report.append(
        render_ablation(result, FEATURES["abl-monitor"].title)
        + "\n  (target <=1.05, asserted <=1.5 for CI noise)"
    )
    assert result["ratio"] < MAX_GC_TIME_RATIO

    # The hub observes collections without changing them: every
    # deterministic work counter is identical whether it is attached or not.
    assert result["counters_match"]

    armed = result["legs"]["armed"]
    assert all(
        e["gc_events_seen"] == armed["counters"]["collections"] for e in armed["extras"]
    )
    # A healthy synthetic run must not page: the catalog's alerts are for
    # real incidents, not for the benchmark harness itself.
    assert result["degradation_alerts"] == 0


def test_monitor_off_leaves_no_trace(once):
    """Without ``monitor=``, the VM carries no monitoring state at all."""

    def run():
        vm = VirtualMachine(
            heap_bytes=HEAP_BUDGETS[PROFILE], assertions=False, telemetry=True
        )
        sinks_before = len(vm.telemetry.sinks)
        run_synthetic(vm, PROFILES[PROFILE])
        return vm, sinks_before

    vm, sinks_before = once(run)
    assert vm.monitor is None
    assert len(vm.telemetry.sinks) == sinks_before  # no hub on the fan-out
