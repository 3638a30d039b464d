"""Ablation abl-paranoid: the paranoid walker is expensive but inert.

The verification layer's acceptance bar: ``paranoid=True`` walks the full
heap and every allocator structure before and after each collection, so
its wall-time cost is allowed to be real — but the walk must be purely
observational.  Every deterministic work counter must be bit-identical to
the walker-free run (the walk counter lives outside ``GcStats`` for
exactly this reason), and a clean workload must finish with zero
``HeapVerificationError`` raises.
"""

from __future__ import annotations

from benchmarks.conftest import trials
from repro.bench.perf import FEATURES, render_ablation, run_ablation
from repro.runtime.vm import VirtualMachine
from repro.workloads.suite import HEAP_BUDGETS

PROFILE = "bloat"  # the GC-heaviest suite member, as in abl-tracing


def test_paranoid_walker_is_observational(once, figure_report):
    result = once(run_ablation, "abl-paranoid", workload=PROFILE, trials=trials())
    figure_report.append(
        render_ablation(result, FEATURES["abl-paranoid"].title)
        + "\n  (counter identity is the gate)"
    )

    # The walker observes; it must never change what the collector does.
    assert result["counters_match"]

    # Walks actually happened on the paranoid leg (pre+post per full GC)
    # and never on the plain leg.
    assert result["paranoid_walks"] > 0
    assert all(e["paranoid_walks"] == 0 for e in result["legs"]["off"]["extras"])


def test_paranoid_off_has_no_walker_attribute_cost(once):
    """Off is the default and costs one falsy attribute test per GC."""

    def run():
        vm = VirtualMachine(
            heap_bytes=HEAP_BUDGETS[PROFILE], assertions=False, telemetry=False
        )
        return vm.collector.paranoid, vm.collector.paranoid_walks

    flag, walks = once(run)
    assert flag is False
    assert walks == 0
