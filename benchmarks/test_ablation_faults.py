"""Ablation abl-faults: the standing cost of an armed fault injector.

The robustness layer's acceptance bar: an attached injector with an empty
plan must be free.  Its only hot-path presence is the allocation-count
shim — one integer increment and an empty-list check per allocation —
plus one inert GC observer, so the GC-time ratio must sit at ~1.00 and
every deterministic work counter must be bit-identical to a run with no
injector at all.  Recovery counters must stay at zero: an armed injector
that triggers any hardening machinery before its first fault is a bug.
"""

from __future__ import annotations

from benchmarks.conftest import trials
from repro.bench.perf import FEATURES, render_ablation, run_ablation
from repro.faults import FaultInjector, FaultPlan
from repro.runtime.vm import VirtualMachine
from repro.workloads.suite import HEAP_BUDGETS

PROFILE = "bloat"  # the GC-heaviest suite member, as in abl-tracing

#: Wall-clock bound for the allocation shim, with headroom over the ~1.02
#: acceptance target for interpreter jitter on loaded CI machines.  The
#: counter-identity assertion is the hard gate.
MAX_GC_TIME_RATIO = 1.5


def test_fault_injector_overhead(once, figure_report):
    result = once(run_ablation, "abl-faults", workload=PROFILE, trials=trials())
    figure_report.append(
        render_ablation(result, FEATURES["abl-faults"].title)
        + "\n  (target <=1.02, asserted <=1.5 for CI noise)"
    )
    assert result["ratio"] < MAX_GC_TIME_RATIO

    # The injector observes allocations without changing them: every
    # deterministic work counter is identical whether it is attached or not.
    assert result["counters_match"]

    # Empty plan: nothing ever fires, and no hardening machinery ever
    # engaged on either leg -- recovery counters all zero.
    assert result["faults_applied"] == 0
    assert result["recovery_activity"] == 0


def test_detach_restores_the_original_allocate(once):
    """After ``detach`` the collector's allocate is the pristine bound method."""

    def run():
        vm = VirtualMachine(
            heap_bytes=HEAP_BUDGETS[PROFILE], assertions=False, telemetry=False
        )
        pristine = vm.collector.allocate
        injector = FaultInjector(vm, FaultPlan()).attach()
        shadowed = vm.collector.allocate is not pristine
        injector.detach()
        return vm, pristine, shadowed

    vm, pristine, shadowed = once(run)
    assert shadowed
    assert vm.collector.allocate == pristine
    assert "allocate" not in vars(vm.collector)  # instance shadow removed
