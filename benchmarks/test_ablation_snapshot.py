"""Ablation abl-snapshot: the cost of piggybacked heap-snapshot capture.

The snapshot subsystem's acceptance bar: capturing on *every* full
collection (``SnapshotPolicy(every_n_gcs=1)``, the worst case) must add no
more than ~15% to GC time, because the capture drain records one bare
address per live object (non-moving collectors) or one frozen row (copying
collectors) as a by-product of marking, and serialization happens after
the pause timer closes.  With no policy installed the capture machinery
must be entirely inert — identical work counters, no sink anywhere a hot
path could reach.
"""

from __future__ import annotations

from benchmarks.conftest import trials
from repro.bench.perf import FEATURES, render_ablation, run_ablation
from repro.runtime.vm import VirtualMachine
from repro.workloads.suite import HEAP_BUDGETS
from repro.workloads.synthetic import PROFILES, run_synthetic

PROFILE = "bloat"  # the GC-heaviest suite member, as in abl-path

#: Wall-clock bound for the capture drain, with headroom over the ~15%
#: acceptance target for interpreter jitter on loaded CI machines.  The
#: counter-identity assertion is the hard gate.
MAX_GC_TIME_RATIO = 1.5


def test_snapshot_capture_overhead(once, figure_report):
    result = once(run_ablation, "abl-snapshot", workload=PROFILE, trials=trials())
    figure_report.append(
        render_ablation(result, FEATURES["abl-snapshot"].title)
        + "\n  (target <=1.15, asserted <=1.5 for CI noise)"
    )
    assert result["ratio"] < MAX_GC_TIME_RATIO

    # Capture observes marking without changing it: every deterministic
    # work counter is identical whether the policy is installed or not.
    assert result["counters_match"]

    # And the capture leg actually piggybacked on every full collection.
    capture = result["legs"]["capture"]
    assert result["snapshots_written"] == capture["counters"]["full_collections"]


def test_no_policy_is_inert(once):
    """Without a policy the capture machinery is unreachable from hot paths."""

    def run():
        vm = VirtualMachine(
            heap_bytes=HEAP_BUDGETS[PROFILE], assertions=False, telemetry=False
        )
        run_synthetic(vm, PROFILES[PROFILE])
        return vm

    vm = once(run)
    assert vm.snapshot_policy is None
    assert vm.collector.snapshot_policy is None
    assert vm.collector._snapshot_pending is None
