"""Ablation abl-service: the cost of running a tenant through the server.

The service's acceptance bar is bit-identity first, overhead second: a
workload submitted over the wire (``repro-wire/1``) to an in-process
:class:`AssertionService` must produce exactly the same deterministic GC
and assertion counters — and the same violation log — as running it
directly on a :class:`VirtualMachine` with the same configuration.  The
server adds a telemetry sink and a non-perturbing violation handler to
the session VM, plus protocol framing around the run; none of that may
touch collector behaviour.

GC time through the server is gated loosely (the run happens on an
executor thread either way; the delta is scheduling noise, not collector
work).  The counter-identity assertion is the hard gate.
"""

from __future__ import annotations

from benchmarks.conftest import trials
from repro.bench.perf import FEATURES, render_ablation, run_ablation

WORKLOAD = "bloat"  # the GC-heaviest suite member, as in abl-path

#: GC-time bound for the served leg; generous because the comparison is
#: between two runs of the same collector on different threads.
MAX_GC_TIME_RATIO = 1.5


def test_service_counter_identity_and_overhead(once, figure_report):
    result = once(run_ablation, "abl-service", workload=WORKLOAD, trials=trials())
    figure_report.append(
        render_ablation(result, FEATURES["abl-service"].title)
        + f"\n  (asserted <={MAX_GC_TIME_RATIO} for scheduling noise)"
    )
    assert result["ratio"] < MAX_GC_TIME_RATIO

    # The hard gate: a tenant run through the server is bit-identical to
    # the same workload run directly — counters and violation log both —
    # in every trial, so the served sessions also agree with each other.
    assert result["counters_match"]
    assert result["completed"]
