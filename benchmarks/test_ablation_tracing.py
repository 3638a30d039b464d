"""Ablation abl-tracing: the cost of in-pause span tracing.

The tracing subsystem's acceptance bar: recording every phase span,
assertion instant, and sweep-debt counter must add no more than a few
percent to GC time, because each span is two tuple appends sharing the
``perf_counter`` readings the phase timers already take.  With tracing off
the recorder must be entirely inert — one ``is None`` attribute test per
phase, identical work counters, no span objects allocated anywhere.
"""

from __future__ import annotations

from benchmarks.conftest import trials
from repro.bench.perf import FEATURES, render_ablation, run_ablation
from repro.gc import base as gc_base
from repro.runtime.vm import VirtualMachine
from repro.workloads.suite import HEAP_BUDGETS
from repro.workloads.synthetic import PROFILES, run_synthetic

PROFILE = "bloat"  # the GC-heaviest suite member, as in abl-snapshot

#: Wall-clock bound for the span recorder, with headroom over the ~2%
#: acceptance target for interpreter jitter on loaded CI machines.  The
#: counter-identity assertion is the hard gate.
MAX_GC_TIME_RATIO = 1.5


def test_span_tracing_overhead(once, figure_report):
    result = once(run_ablation, "abl-tracing", workload=PROFILE, trials=trials())
    figure_report.append(
        render_ablation(result, FEATURES["abl-tracing"].title)
        + "\n  (target <=1.02, asserted <=1.5 for CI noise)"
    )
    assert result["ratio"] < MAX_GC_TIME_RATIO

    # Spans observe the phases without changing them: every deterministic
    # work counter is identical whether the recorder is installed or not.
    assert result["counters_match"]

    # And the traced leg actually recorded spans on every collection.
    traced = result["legs"]["trace"]
    assert result["spans_recorded"] >= traced["counters"]["collections"]


def test_tracing_off_is_inert(once):
    """Without ``tracing=True`` the recorder is unreachable from hot paths."""

    def run():
        vm = VirtualMachine(
            heap_bytes=HEAP_BUDGETS[PROFILE], assertions=False, telemetry=False
        )
        run_synthetic(vm, PROFILES[PROFILE])
        return vm

    vm = once(run)
    assert vm.span_tracer is None
    assert vm.collector.span_tracer is None
    # The disabled span helper returns the module-level no-op singleton:
    # no object is allocated per phase when tracing is off.
    assert vm.collector._span("collect") is gc_base._NOOP_SPAN
