"""The direct workloads: program runs on fresh VMs in this process.

``suite`` is the paper's Figure 2-5 configuration: every suite member on
a fresh MarkSweep VM at its calibrated 2x-minimum heap, db and pseudojbb
in their WithAssertions variants and the rest in the Infrastructure
configuration (engine and path tracking on, nothing registered).

``leak-hunt`` is the section 3.2 case studies scaled up: SwapLeak with
periodic collections (leaky and repaired), pseudojbb at paper scale with
its three leak bugs and all three assertion placements, and lusearch with
the single-searcher assertion (leaky and repaired).

Every run carries a known-answer verdict check whose expected value comes
from the run's inputs, never from the collector under test.
"""

from __future__ import annotations

import dataclasses
import gc as host_gc
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional

import bench_ledger
from bench_stats import median, min_samples, tail
from repro.core.reporting import AssertionKind
from repro.runtime.vm import VirtualMachine
from repro.telemetry.events import GcEvent
from repro.workloads.db import DbConfig, run_db
from repro.workloads.jbb.driver import JbbConfig, run_pseudojbb
from repro.workloads.lusearch import LusearchConfig, run_lusearch
from repro.workloads.suite import HEAP_BUDGETS, build_suite
from repro.workloads.swapleak import SwapLeakConfig, run_swapleak
from repro.workloads.synthetic import PROFILES, run_synthetic

#: SwapLeak scale in leak-hunt: 2048 swaps with a collection every 64.
SWAPLEAK_SWAPS = 2048
SWAPLEAK_GC_EVERY = 64
#: Heap for the SwapLeak runs: large enough that only the periodic and the
#: final collection run, which is what the known-answer formula counts.
SWAPLEAK_HEAP = 1 << 20
#: pseudojbb with all three leaks keeps most Orders alive; this heap holds
#: the paper-scale leak with room to spare while collections still fire.
JBB_LEAK_HEAP = 2 << 20


def derive_seed(seed: int, label: str) -> int:
    """A per-input seed: stable across processes, distinct per label."""
    return zlib.crc32(f"{label}:{seed}".encode())


def swapleak_expected_violations(swaps: int, gc_every: int) -> int:
    """Known answer for leaky SwapLeak with a final collection.

    Every swapped-out SObject stays reachable through the hidden
    ``outer`` reference of the Rep it gave away, so each collection
    reports every SObject asserted dead so far: the total is the sum,
    over collections, of the swaps made before it.
    """
    periodic = swaps // gc_every if gc_every else 0
    return gc_every * periodic * (periodic + 1) // 2 + swaps


def swapleak_expected_collections(swaps: int, gc_every: int) -> int:
    return (swaps // gc_every if gc_every else 0) + 1


@dataclass
class ProgramRun:
    """One program run on a fresh VM plus its verdict check."""

    name: str
    heap_bytes: int
    body: Callable[[VirtualMachine], object]
    #: ``check(vm, result)`` returns None when the verdict is right, else
    #: a description of what is wrong.
    check: Callable[[VirtualMachine, object], Optional[str]]


def _violations(vm: VirtualMachine) -> int:
    return len(vm.engine.log) if vm.engine is not None else 0


def _expect_clean(vm: VirtualMachine, _result) -> Optional[str]:
    count = _violations(vm)
    return None if count == 0 else f"{count} violations on a correct program"


def _expect_kinds(*kinds: AssertionKind):
    def check(vm: VirtualMachine, _result) -> Optional[str]:
        seen = {v.kind for v in vm.engine.log}
        missing = [k.value for k in kinds if k not in seen]
        return None if not missing else f"no {', '.join(missing)} violation reported"

    return check


def _swapleak_check(config: SwapLeakConfig):
    def check(vm: VirtualMachine, _result) -> Optional[str]:
        want = (
            0
            if config.static_rep
            else swapleak_expected_violations(config.swaps, config.gc_every_swaps)
        )
        got = _violations(vm)
        if got != want:
            return f"{got} violations, expected {want}"
        collections = swapleak_expected_collections(config.swaps, config.gc_every_swaps)
        if vm.stats.collections != collections:
            return f"{vm.stats.collections} collections, expected {collections}"
        return None

    return check


def suite_runs(seed: int) -> list[ProgramRun]:
    """The paper's suite, inputs seeded from ``seed``."""
    runs: list[ProgramRun] = []
    for name in build_suite():
        heap = HEAP_BUDGETS[name]
        sub = derive_seed(seed, name)
        if name in PROFILES:
            profile = dataclasses.replace(PROFILES[name], seed=sub)
            body = lambda vm, p=profile: run_synthetic(vm, p)
        elif name == "db":
            config = DbConfig(seed=sub, assert_ownedby_entries=True, assert_dead_on_delete=True)
            body = lambda vm, c=config: run_db(vm, c)
        elif name == "pseudojbb":
            config = JbbConfig(
                seed=sub,
                assert_dead_orders=True,
                assert_ownedby_orders=True,
                assert_instances_company=True,
            )
            body = lambda vm, c=config: run_pseudojbb(vm, c)
        elif name == "lusearch":
            config = LusearchConfig(seed=sub, gc_midway=False)
            body = lambda vm, c=config: run_lusearch(vm, c)
        else:
            raise ValueError(f"suite member {name!r} has no benchmark input")
        runs.append(ProgramRun(name, heap, body, _expect_clean))
    return runs


def leak_hunt_runs(seed: int) -> list[ProgramRun]:
    """The section 3.2 case studies, inputs seeded from ``seed``."""
    # The array size moves the slots the swaps cycle through; the
    # violation total does not depend on it.
    array_size = 240 + 8 * (derive_seed(seed, "swapleak") % 5)
    runs = []
    for static_rep in (False, True):
        config = SwapLeakConfig(
            array_size=array_size,
            swaps=SWAPLEAK_SWAPS,
            gc_every_swaps=SWAPLEAK_GC_EVERY,
            static_rep=static_rep,
        )
        runs.append(
            ProgramRun(
                "swapleak-static" if static_rep else "swapleak",
                SWAPLEAK_HEAP,
                lambda vm, c=config: run_swapleak(vm, c),
                _swapleak_check(config),
            )
        )
    jbb = dataclasses.replace(
        JbbConfig.paper_scale(),
        seed=derive_seed(seed, "pseudojbb"),
        leak_order_table=True,
        leak_last_order=True,
        drag_old_company=True,
        assert_dead_orders=True,
        assert_ownedby_orders=True,
        assert_instances_company=True,
    )
    runs.append(
        ProgramRun(
            "pseudojbb-leaks",
            JBB_LEAK_HEAP,
            lambda vm, c=jbb: run_pseudojbb(vm, c),
            # lastOrder and orderTable leak Orders asserted dead; the
            # oldCompany drag keeps two Companies alive.
            _expect_kinds(AssertionKind.DEAD, AssertionKind.INSTANCES),
        )
    )
    for share in (False, True):
        config = LusearchConfig(
            seed=derive_seed(seed, "lusearch"),
            assert_single_searcher=True,
            share_searcher=share,
        )
        runs.append(
            ProgramRun(
                "lusearch-shared" if share else "lusearch",
                HEAP_BUDGETS["lusearch"],
                lambda vm, c=config: run_lusearch(vm, c),
                _expect_clean if share else _expect_kinds(AssertionKind.INSTANCES),
            )
        )
    return runs


def warmup_runs(seed: int) -> list[ProgramRun]:
    """Small inputs that exercise every code path of both direct workloads."""
    big = 8 << 20
    profile = dataclasses.replace(PROFILES["xalan"], iterations=2, seed=seed)
    return [
        ProgramRun("warm-synthetic", big, lambda vm: run_synthetic(vm, profile), _expect_clean),
        ProgramRun(
            "warm-db",
            big,
            lambda vm: run_db(
                vm,
                DbConfig(
                    seed=seed, initial_entries=20, operations=200,
                    assert_ownedby_entries=True, assert_dead_on_delete=True, gc_every=50,
                ),
            ),
            _expect_clean,
        ),
        ProgramRun(
            "warm-jbb",
            big,
            lambda vm: run_pseudojbb(
                vm,
                JbbConfig(
                    seed=seed, transactions_per_iteration=40, gc_per_iteration=True,
                    assert_dead_orders=True, assert_ownedby_orders=True,
                    assert_instances_company=True,
                ),
            ),
            _expect_clean,
        ),
        ProgramRun(
            "warm-lusearch",
            big,
            lambda vm: run_lusearch(
                vm, LusearchConfig(seed=seed, threads=4, queries_per_thread=8)
            ),
            _expect_clean,
        ),
        ProgramRun(
            "warm-swapleak",
            big,
            lambda vm: run_swapleak(vm, SwapLeakConfig(swaps=32, gc_every_swaps=8)),
            _swapleak_check(SwapLeakConfig(swaps=32, gc_every_swaps=8)),
        ),
    ]


WORKLOAD_RUNS = {"suite": suite_runs, "leak-hunt": leak_hunt_runs}


class _PauseSink:
    """Telemetry sink keeping each collection's stop-the-world pause."""

    def __init__(self, pauses: list):
        self.pauses = pauses

    def emit(self, event) -> None:
        if isinstance(event, GcEvent):
            self.pauses.append(event.pause_s)

    def close(self) -> None:
        pass


@dataclass
class PassResult:
    wall_s: float = 0.0
    gc_s: float = 0.0
    #: Per-collection pause, seconds.
    pauses: list = field(default_factory=list)
    #: ``(program name, wall seconds)`` per run.
    run_walls: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)


def run_program(run: ProgramRun, result: PassResult, tracing: bool = False) -> VirtualMachine:
    """Run one program on a fresh VM, recording timing and verdict."""
    result.attempted += 1
    start = time.perf_counter()
    vm = VirtualMachine(heap_bytes=run.heap_bytes, tracing=tracing)
    vm.telemetry.add_sink(_PauseSink(result.pauses))
    try:
        outcome = run.body(vm)
    except Exception as exc:  # a failed run is counted, never fatal
        result.run_walls.append((run.name, time.perf_counter() - start))
        result.failures.append(f"{run.name}: {type(exc).__name__}: {exc}")
        return vm
    elapsed = time.perf_counter() - start
    result.run_walls.append((run.name, elapsed))
    result.gc_s += vm.stats.gc_seconds + vm.stats.lazy_sweep_seconds
    problem = run.check(vm, outcome)
    if problem is not None:
        result.failures.append(f"{run.name}: {problem}")
    return vm


# -- measurement -------------------------------------------------------------------------


@dataclass
class Measured:
    """What one invocation of a workload produced."""

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list = field(default_factory=list)
    #: Human-readable lines printed before the result.
    notes: list = field(default_factory=list)
    #: Traced runs: the span recorder, written out when the run ends.
    recorder: object = None


def _timed_passes(runs, seconds: float, measured: Measured, recorder=None, breakdown=None,
                  per_program=None) -> list[PassResult]:
    """Closed loop: whole passes until ``seconds`` are (about) used up.

    Another pass starts while at least half a pass still fits, so a run
    ends within half a pass of its budget; there is always one pass, and
    passes continue until the pauses support a p90.
    """
    passes: list[PassResult] = []
    pauses = 0
    enough = min_samples(90.0)
    started = time.perf_counter()
    while (
        not passes
        or pauses < enough
        or (time.perf_counter() - started) + passes[-1].wall_s / 2 < seconds
    ):
        host_gc.collect()
        result = PassResult()
        pass_start = time.perf_counter()
        for run in runs:
            if recorder is None:
                run_program(run, result)
                continue
            with recorder.root(run.name) as root:
                vm = run_program(run, result, tracing=True)
            result.wall_s += root.duration
            # Collector breakdowns (and piggyback replays) run outside the
            # root, so they never count towards the traced total.
            mine = breakdown.add_vm(vm)
            if per_program is not None:
                per_program.setdefault(run.name, bench_ledger.GcBreakdown()).merge(mine)
        if recorder is None:
            result.wall_s = time.perf_counter() - pass_start
        measured.attempted += result.attempted
        measured.failures.extend(result.failures)
        passes.append(result)
        pauses += len(result.pauses)
    return passes


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Measured:
    """Run ``workload`` for about ``seconds`` and compute its metrics."""
    runs = WORKLOAD_RUNS[workload](seed)
    measured = Measured()
    warm = PassResult()
    for run in warmup_runs(seed):
        run_program(run, warm)
    measured.attempted += warm.attempted
    measured.failures.extend(warm.failures)

    if not trace:
        passes = _timed_passes(runs, seconds, measured)
        pauses = [p for result in passes for p in result.pauses]
        walls = [w for result in passes for _name, w in result.run_walls]
        measured.metrics = {
            "run_s": median([r.wall_s for r in passes]),
            "gc_share": median([r.gc_s / r.wall_s for r in passes]),
            "pause_p50_ms": median(pauses) * 1e3,
            "req_p50_ms": median(walls) * 1e3,
        }
        measured.notes.append(
            f"{workload}: {len(passes)} passes, {len(walls)} program runs; "
            f"gc {median([r.gc_s for r in passes]):.4f}s per pass; "
            f"pause p90 {tail(pauses, 90.0) * 1e3:.3f} ms from {len(pauses)} pauses"
        )
        return measured

    # Traced run: untraced passes for a third of the time, then traced ones.
    plain = _timed_passes(runs, seconds / 3, measured)
    recorder = bench_ledger.SpanRecorder()
    breakdown = bench_ledger.GcBreakdown()
    per_program: dict = {}
    bench_ledger.instrument_direct(recorder)
    try:
        traced = _timed_passes(runs, seconds * 2 / 3, measured, recorder, breakdown, per_program)
    finally:
        recorder.unwrap_all()
    agg = recorder.aggregates()
    metrics = bench_ledger.layer_metrics(agg, breakdown.totals)
    metrics["traced_total_s"] = sum(r.wall_s for r in traced)
    metrics["gc.pause_p90_ms"] = tail([p for r in plain for p in r.pauses], 90.0) * 1e3
    metrics["trace_overhead"] = median([r.wall_s for r in traced]) / median(
        [r.wall_s for r in plain]
    )
    # Share of the leak's drain spent building violation path reports.
    swap = per_program.get("swapleak")
    if swap is not None:
        path_s = recorder.aggregates(["swapleak"]).get("core.path_report", [0, 0.0, 0.0])[2]
        metrics["core.path_report_share"] = path_s / swap.totals.get("mark_drain_s", 0.0)
    # Layers only the served workload enters read 0 here.
    for name in bench_ledger.PER_LAYER_UNITS:
        if name.startswith(bench_ledger.SERVED_ONLY):
            metrics.setdefault(name, 0)
    metrics.setdefault("core.path_report_share", 0.0)
    measured.metrics = metrics
    measured.recorder = recorder
    return measured
