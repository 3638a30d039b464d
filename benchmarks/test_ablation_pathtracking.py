"""Ablation abl-path: the cost of the low-bit path-tracking worklist.

§2.7 claims the tagged-worklist scheme maintains full path information
"with no measurable overhead".  The mechanism costs one extra pop per
traced object (the tagged re-push); this ablation measures the GC-time
delta with tracking on vs off, plus the deterministic pop-count delta.
Both legs run engine-free, so they execute the plain and the paths drain,
two loops that differ only by the tag.
"""

from __future__ import annotations

from benchmarks.conftest import trials
from repro.bench.perf import FEATURES, render_ablation, run_ablation
from repro.runtime.vm import VirtualMachine

PROFILE = "bloat"  # the GC-heaviest suite member


def test_path_tracking_overhead(once, figure_report):
    result = once(run_ablation, "abl-path", workload=PROFILE, trials=trials())
    figure_report.append(
        render_ablation(result, FEATURES["abl-path"].title)
        + "\n  (paper: 'no measurable overhead')"
    )
    # Shape: cheap — far below a 2x slowdown even in pure Python, where the
    # extra pop is proportionally much more expensive than in Jikes.
    assert result["ratio"] < 2.0

    # Identical collection work (every counter but the tag count)...
    assert result["counters_match"]
    # ...the only mechanical difference is the tagged re-push per object.
    on, off = result["legs"]["on"], result["legs"]["off"]
    assert all(
        e["path_entries_tagged"] == on["counters"]["objects_traced"]
        for e in on["extras"]
    )
    assert all(e["path_entries_tagged"] == 0 for e in off["extras"])


def test_path_quality_not_free_of_value(once):
    """With tracking on, violations carry complete paths; with it off they
    carry none — the ablation's other axis."""

    def run():
        reports = {}
        for track in (True, False):
            vm = VirtualMachine(heap_bytes=1 << 20, track_paths=track)
            cls = vm.define_class("N", [("next", "ref")])
            with vm.scope():
                a = vm.new(cls)
                b = vm.new(cls)
                a["next"] = b
                vm.statics.set_ref("head", a.address)
                vm.assertions.assert_dead(b)
            vm.gc()
            violation = vm.engine.log.violations[0]
            reports[track] = len(violation.path) if violation.path else 0
        return reports

    reports = once(run)
    assert reports[True] == 2  # head -> victim
    assert reports[False] <= 1
