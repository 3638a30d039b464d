"""The benchmark suite registry used by the figure-regeneration harness.

One entry per suite member from the paper's Figures 2–5: DaCapo 2006
members, SPEC JVM98 members, and pseudojbb.  ``db``, ``lusearch``, and
``pseudojbb`` run their full analog workloads; the remaining members run
synthetic allocation profiles (see :mod:`repro.workloads.synthetic` and
DESIGN.md §4 for the substitution rationale).

Heap budgets follow the paper's sizing rule — each benchmark runs "with a
heap size fixed at two times the minimum possible for that benchmark" — and
were calibrated with :func:`measure_live_peak`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.runtime.vm import VirtualMachine
from repro.workloads.db import DbConfig, run_db
from repro.workloads.jbb.driver import JbbConfig, run_pseudojbb
from repro.workloads.lusearch import LusearchConfig, run_lusearch
from repro.workloads.swapleak import SwapLeakConfig, run_swapleak
from repro.workloads.synthetic import PROFILES, run_synthetic

Runner = Callable[[VirtualMachine], object]

#: Calibrated heap budgets: 2x the measured minimum heap per benchmark
#: (binary search with `find_min_heap`, see tools in benchmarks/).  This is
#: the paper's rule: "a heap size fixed at two times the minimum possible
#: for that benchmark using the MarkSweep collector."
HEAP_BUDGETS: dict[str, int] = {
    "antlr": 35664,
    "bloat": 384464,
    "fop": 112000,
    "hsqldb": 452096,
    "jython": 32768,
    "luindex": 137872,
    "pmd": 177536,
    "xalan": 32768,
    "compress": 267952,
    "jess": 56240,
    "javac": 233456,
    "mpegaudio": 32768,
    "mtrt": 32768,
    "jack": 63744,
    "db": 73168,
    "lusearch": 304928,
    "pseudojbb": 32768,
}


@dataclass(frozen=True)
class SuiteEntry:
    """One benchmark: plain runner, optional asserted runner, heap budget."""

    name: str
    heap_bytes: int
    run: Runner
    #: The paper adds assertions only to db and pseudojbb (§3.1.1); None
    #: for the rest.
    run_with_assertions: Optional[Runner] = None


def _db_plain(vm: VirtualMachine):
    return run_db(vm, DbConfig())


def _db_asserted(vm: VirtualMachine):
    return run_db(
        vm, DbConfig(assert_ownedby_entries=True, assert_dead_on_delete=True)
    )


def _jbb_plain(vm: VirtualMachine):
    return run_pseudojbb(vm, JbbConfig())


def _jbb_asserted(vm: VirtualMachine):
    return run_pseudojbb(
        vm,
        JbbConfig(
            assert_dead_orders=True,
            assert_ownedby_orders=True,
            assert_instances_company=True,
        ),
    )


def _lusearch_plain(vm: VirtualMachine):
    return run_lusearch(vm, LusearchConfig(gc_midway=False))


def _synthetic_runner(profile_name: str) -> Runner:
    profile = PROFILES[profile_name]

    def run(vm: VirtualMachine):
        return run_synthetic(vm, profile)

    return run


def build_suite() -> dict[str, SuiteEntry]:
    """All Figure 2/3 suite members, name → entry."""
    entries: dict[str, SuiteEntry] = {}
    for name in PROFILES:
        entries[name] = SuiteEntry(
            name=name, heap_bytes=HEAP_BUDGETS[name], run=_synthetic_runner(name)
        )
    entries["db"] = SuiteEntry(
        name="db",
        heap_bytes=HEAP_BUDGETS["db"],
        run=_db_plain,
        run_with_assertions=_db_asserted,
    )
    entries["lusearch"] = SuiteEntry(
        name="lusearch", heap_bytes=HEAP_BUDGETS["lusearch"], run=_lusearch_plain
    )
    entries["pseudojbb"] = SuiteEntry(
        name="pseudojbb",
        heap_bytes=HEAP_BUDGETS["pseudojbb"],
        run=_jbb_plain,
        run_with_assertions=_jbb_asserted,
    )
    return entries


def workload_names() -> list[str]:
    """Every name :func:`resolve_workload` accepts: the suite members in
    order, then ``swapleak``."""
    return sorted(build_suite()) + ["swapleak"]


def resolve_workload(
    name: str,
    *,
    swapleak: Callable[[], SwapLeakConfig],
    swapleak_heap_bytes: int,
    asserted: bool = False,
) -> Optional[tuple[int, Runner]]:
    """Map a workload name to ``(heap_bytes, runner)``; ``None`` if unknown.

    Accepts every suite member (at its calibrated heap) plus the
    ``swapleak`` pseudo-workload, whose knobs and heap differ by caller:
    ``swapleak`` builds the caller's config (called only for that name)
    and ``swapleak_heap_bytes`` sizes its heap.  ``asserted`` picks the
    suite member's asserted variant when it has one and sets swapleak's
    ``assert_dead_swapped``.  Reporting an unknown name is the caller's
    job, in its own terms (a wire error, a usage exit code).
    """
    if name == "swapleak":
        config = replace(swapleak(), assert_dead_swapped=asserted)
        return swapleak_heap_bytes, lambda vm: run_swapleak(vm, config)
    entry = build_suite().get(name)
    if entry is None:
        return None
    runner = entry.run
    if asserted and entry.run_with_assertions is not None:
        runner = entry.run_with_assertions
    return entry.heap_bytes, runner


def measure_live_peak(entry: SuiteEntry, probe_heap_bytes: int = 64 << 20) -> dict:
    """Calibration helper: run a benchmark in a huge heap and report live/peak
    byte volumes, used to size the 2x-minimum heaps above."""
    vm = VirtualMachine(heap_bytes=probe_heap_bytes, assertions=False)
    entry.run(vm)
    in_use = vm.collector.bytes_in_use()
    vm.gc("calibration")
    return {
        "name": entry.name,
        "peak_bytes_in_use": in_use,
        "live_bytes_after_gc": vm.collector.bytes_in_use(),
        "objects_live": vm.heap.stats.objects_live,
        "bytes_allocated": vm.heap.stats.bytes_allocated,
    }
