"""Ablation abl-dtrace: the cost of end-to-end request tracing.

Distributed tracing wraps every served request in lifecycle spans
(admission wait, ledger commit, executor wait, execution), re-parents
the tenant VM's in-pause span stream under the request, and stamps
trace context on every wire frame.  The contract is the same as
abl-service's, one notch stricter: a *traced* served run must stay
bit-identical — GC and assertion counters, and the violation log — to a
direct VM run with tracing off.  The span plumbing observes the
collector; it must never steer it.

GC time is gated loosely (executor-thread scheduling noise dominates);
counter identity is the hard gate.  The merged multi-track export must
also validate as a Chrome trace — a malformed trace is a failed
ablation, not just a broken viewer.
"""

from __future__ import annotations

from benchmarks.conftest import trials
from benchmarks.test_ablation_service import MAX_GC_TIME_RATIO, WORKLOAD
from repro.bench.perf import FEATURES, render_ablation, run_ablation


def test_dtrace_counter_identity_and_overhead(once, figure_report):
    result = once(run_ablation, "abl-dtrace", workload=WORKLOAD, trials=trials())
    figure_report.append(
        render_ablation(result, FEATURES["abl-dtrace"].title)
        + f"\n  (asserted <={MAX_GC_TIME_RATIO} for scheduling noise)"
    )
    assert result["ratio"] < MAX_GC_TIME_RATIO

    # The hard gate: tracing on over the wire == tracing off on a bare VM.
    assert result["counters_match"]
    assert result["completed"]
    assert result["frames_missed"] == 0

    # And the observability artifact itself is sound.
    assert result["trace_valid"]
    assert result["requests_completed"]
    assert result["request_spans"] == trials()
