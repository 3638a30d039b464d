"""Hot-path microbenchmarks, the eager-vs-lazy pause comparison, and the
on/off feature ablations.

``python -m repro bench`` writes the machine-readable record
``BENCH_perf.json`` (schema ``repro-bench-perf/1``):

* **trace** — one prepared heap replayed by the three fused drains a
  measured collection runs — plain (Base), paths (Infrastructure without
  an engine) and paths+engine (the assertion engine's inlined header
  checks) — through :func:`repro.tracing.report._replay_leg`; reported as
  edges-traced/second per drain.  One more pass drives a hook engine that
  reads the cheap path API at every encounter (the general drain).  All
  four must agree on the work counters.
* **alloc** — allocation throughput with the run cache disabled (the
  pre-overhaul ``space.allocate`` path) and enabled, plus the fast-path
  hit rate.
* **pauses** — full workloads (lusearch, pseudojbb) run twice, under
  ``sweep_mode="eager"`` and ``"lazy"``; reported as pause percentiles plus
  the deterministic work counters, which must be identical between modes
  (the lazy sweep changes *when* reclamation happens, never *what* is
  reclaimed).
* **abl-*** — one section per row of :data:`FEATURES`: a workload run with
  one feature off and on (span tracing, snapshot capture, an armed
  empty-plan fault injector, the paranoid walker, the monitoring hub,
  telemetry, path tagging, and a tenant served over the wire with and
  without end-to-end tracing).  Every feature observes the collector
  without steering it, so the work counters of every trial must be
  identical; the time ratio is the feature's price.

Alloc and every ablation go through
:func:`repro.bench.methodology.ablate`: interleaved trials, the first leg
alternating, mean ± CI90 per leg, ratio of the means.  Wall-clock numbers
from a Python simulator are noisy; the counters are the ground truth
(``counters_match`` gates CI), the ratios are the trend.  The per-layer
cost ledger is ``perfbench/run.py --trace 1``, not this record.
"""

from __future__ import annotations

import hashlib
import json
import platform
import random
import tempfile
import time
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Callable

from repro.bench.methodology import Leg, ablate
from repro.gc.stats import GcStats
from repro.gc.tracer import Tracer
from repro.heap.object_model import FieldKind
from repro.runtime.vm import VirtualMachine
from repro.tracing.report import _clear_marks, _NullInlineEngine, _replay_leg
from repro.workloads.suite import SuiteEntry, build_suite

#: Workloads used for the eager-vs-lazy pause comparison.
PAUSE_WORKLOADS = ("lusearch", "pseudojbb")


# -- trace microbenchmark --------------------------------------------------------------


def _build_trace_heap(n_nodes: int) -> VirtualMachine:
    """A deterministic object graph: list spines, a tree, and ref arrays."""
    vm = VirtualMachine(
        heap_bytes=64 << 20, assertions=False, telemetry=False
    )
    node = vm.define_class(
        "BenchNode",
        [("next", FieldKind.REF), ("other", FieldKind.REF), ("value", FieldKind.INT)],
    )
    rng = random.Random(0xBEEF)
    addresses: list[int] = []
    prev = None
    for i in range(n_nodes):
        obj = vm.collector.allocate(node)
        obj.slots[2] = i
        addresses.append(obj.address)
        if prev is not None:
            prev.slots[0] = obj.address
        # Cross links make the repeat-encounter path non-trivial.
        obj.slots[1] = addresses[rng.randrange(len(addresses))]
        prev = obj
    array_cls = vm.array_class(node)
    for start in range(0, n_nodes, 64):
        chunk = addresses[start : start + 64]
        arr = vm.collector.allocate(array_cls, len(chunk))
        arr.slots[:] = chunk
        vm.statics.set_ref(f"bench-arr-{start}", arr.address)
    vm.statics.set_ref("bench-head", addresses[0])
    return vm


class _PathDepthProbe:
    """A minimal hook engine exercising the cheap path API during a drain.

    Uses :meth:`Tracer.path_depth` and :meth:`Tracer.current_path_addresses`
    — the no-object-materialization variants — the way a sampling profiler
    would: every object visit reads the depth, an occasional visit takes the
    whole address chain.
    """

    def __init__(self, sample_every: int = 1024):
        self.max_depth = 0
        self.sampled_paths = 0
        self._visits = 0
        self._sample_every = sample_every

    def on_repeat_encounter(self, obj, tracer, parent) -> None: ...

    def on_first_encounter(self, obj, tracer, parent) -> None:
        depth = tracer.path_depth()
        if depth > self.max_depth:
            self.max_depth = depth
        self._visits += 1
        if self._visits % self._sample_every == 0:
            chain = tracer.current_path_addresses(obj.address)
            self.sampled_paths += 1
            assert chain and chain[-1] == obj.address


def _trace_counters(stats: GcStats) -> dict:
    return {
        "objects_traced": stats.objects_traced,
        "edges_traced": stats.edges_traced,
        "path_entries_tagged": stats.path_entries_tagged,
    }


def bench_trace(n_nodes: int = 20_000) -> dict:
    """The three fused drains, and the general drain under a path probe,
    over one prepared heap."""
    vm = _build_trace_heap(n_nodes)
    roots = list(vm.root_entries())
    drains: dict[str, dict] = {}
    for name, engine, track_paths in (
        ("plain", None, False),
        ("paths", None, True),
        ("paths_engine", _NullInlineEngine(), True),
    ):
        seconds, stats = _replay_leg(vm, roots, engine, track_paths)
        drains[name] = {
            "best_seconds": seconds,
            "edges_per_second": stats.edges_traced / seconds if seconds else 0.0,
            **_trace_counters(stats),
        }
    probe = _PathDepthProbe()
    probe_stats = GcStats()
    Tracer(vm.heap, probe_stats, probe, track_paths=True).trace(roots)
    _clear_marks(vm.heap)
    probed = _trace_counters(probe_stats)
    plain = drains["plain"]
    work = (plain["objects_traced"], plain["edges_traced"])
    return {
        "nodes": n_nodes,
        "drains": drains,
        "counters_match": (
            all(
                (row["objects_traced"], row["edges_traced"]) == work
                for row in (*drains.values(), probed)
            )
            and plain["path_entries_tagged"] == 0
            and all(
                row["path_entries_tagged"] == plain["objects_traced"]
                for row in (drains["paths"], drains["paths_engine"], probed)
            )
        ),
        "path_probe": {
            **probed,
            "max_depth": probe.max_depth,
            "sampled_paths": probe.sampled_paths,
        },
    }


# -- allocation microbenchmark ----------------------------------------------------------


def bench_alloc(n_allocs: int = 50_000, trials: int = 5) -> dict:
    """Allocation throughput with the run cache disabled vs enabled.

    Measured in the regime the cache targets: allocation out of recycled
    free-list cells (prefill, collect, then time allocations that pop the
    freed cells).  On a fresh bump frontier the cache is near-neutral — one
    refill per ``RUN_CACHE_CELLS`` bump carves instead of one carve per
    allocation.
    """

    def leg(cached: bool) -> Leg:
        def run():
            vm = VirtualMachine(
                heap_bytes=64 << 20, assertions=False, telemetry=False
            )
            cls = vm.define_class(
                "AllocBench", [("a", FieldKind.INT), ("b", FieldKind.REF)]
            )
            collector = vm.collector
            if not cached:
                collector._alloc_cache = None  # pre-overhaul space.allocate path
            allocate = collector.allocate
            for _ in range(n_allocs):
                allocate(cls)  # unrooted prefill ...
            vm.gc("populate the free lists")  # ... freed: cells now recycled
            hits_before = collector.stats.alloc_fast_hits
            start = time.perf_counter()
            for _ in range(n_allocs):
                allocate(cls)
            seconds = time.perf_counter() - start
            fast_hits = collector.stats.alloc_fast_hits - hits_before
            return seconds, {"live_objects": len(vm.heap)}, {"alloc_fast_hits": fast_hits}

        return run

    result = ablate(
        "alloc",
        {"uncached": leg(False), "cached": leg(True)},
        workload=f"{n_allocs} recycled-cell allocations",
        trials=trials,
        basis="wall",
    )
    hits = min(e["alloc_fast_hits"] for e in result["legs"]["cached"]["extras"])
    result["fast_hit_rate"] = hits / n_allocs if n_allocs else 0.0
    return result


# -- the feature ablations --------------------------------------------------------------


def _vm_leg(workload: SuiteEntry, basis: str, attach=None, **options) -> Leg:
    """One trial: ``workload`` on a fresh VM built with ``options``, timed
    on ``basis``: ``"gc"`` (pause time), ``"mark"`` or ``"wall"``.

    ``attach(vm, stack)`` installs the feature before the run (``stack``
    holds what the trial must clean up) and returns a callable that reads
    the leg's extras once the run is over.
    """

    def leg():
        with ExitStack() as stack:
            vm = VirtualMachine(heap_bytes=workload.heap_bytes, **options)
            read_extras = attach(vm, stack) if attach is not None else dict
            start = time.perf_counter()
            workload.run(vm)
            vm.collector.sweep_all()
            wall = time.perf_counter() - start
            extras = read_extras()
        stats = vm.stats
        seconds = {"wall": wall, "gc": stats.gc_seconds, "mark": stats.mark_seconds}
        return seconds[basis], stats.snapshot()["counters"], extras

    return leg


#: The configuration of a direct VM that does no optional work.
_QUIET = {"assertions": False, "telemetry": False}


def _snapshot_legs(workload, basis, _stack):
    from repro.snapshot import SnapshotPolicy

    def capture(vm, stack):
        out_dir = stack.enter_context(tempfile.TemporaryDirectory(prefix="repro-abl-"))
        policy = SnapshotPolicy(out_dir, every_n_gcs=1).attach(vm)
        return lambda: {"snapshots_written": len(policy.captured)}

    return {
        "off": _vm_leg(workload, basis, **_QUIET),
        "capture": _vm_leg(workload, basis, capture, **_QUIET),
    }


def _tracing_legs(workload, basis, _stack):
    def spans(vm, _stack):
        return lambda: {"spans_recorded": vm.span_tracer.spans_ended}

    return {
        "off": _vm_leg(workload, basis, **_QUIET),
        "trace": _vm_leg(workload, basis, spans, tracing=True, **_QUIET),
    }


def _faults_legs(workload, basis, _stack):
    from repro.faults import FaultInjector, FaultPlan

    def recovery(vm, _stack):
        return lambda: {"recovery_activity": vm.collector.recovery.total()}

    def armed(vm, stack):
        injector = FaultInjector(vm, FaultPlan()).attach()
        stack.callback(injector.detach)
        return lambda: {
            "recovery_activity": vm.collector.recovery.total(),
            "faults_applied": len(injector.applied),
        }

    return {
        "off": _vm_leg(workload, basis, recovery, **_QUIET),
        "armed": _vm_leg(workload, basis, armed, **_QUIET),
    }


def _paranoid_legs(workload, basis, _stack):
    def walks(vm, _stack):
        return lambda: {"paranoid_walks": vm.collector.paranoid_walks}

    return {
        "off": _vm_leg(workload, basis, walks, **_QUIET),
        "paranoid": _vm_leg(workload, basis, walks, paranoid=True, **_QUIET),
    }


def _monitor_legs(workload, basis, _stack):
    from repro.monitor import MonitorHub, default_slos

    def hub(vm, _stack):
        monitor = MonitorHub(default_slos()).attach(vm)
        return lambda: {
            "gc_events_seen": monitor.gc_events_seen,
            "alerts_seen": len(monitor.alerts),
            "degradation_alerts": sum(
                1 for a in monitor.alerts if a.objective == "no-degradation"
            ),
        }

    # Both legs run telemetry, so the ratio prices exactly the hub.
    return {
        "off": _vm_leg(workload, basis, assertions=False, telemetry=True),
        "armed": _vm_leg(workload, basis, hub, assertions=False, telemetry=True),
    }


def _telemetry_legs(workload, basis, _stack):
    def observed(vm, _stack):
        hub = vm.telemetry
        return lambda: {
            "events": len(hub.events),
            "pause_samples": hub.pause_hist.count,
            "census_samples": hub.census.samples,
            "alloc_samples": hub.alloc_hist.count,
        }

    return {
        "off": _vm_leg(workload, basis, **_QUIET),
        "on": _vm_leg(workload, basis, observed, assertions=False, telemetry=True),
    }


def _path_legs(workload, basis, _stack):
    # Engine-free, so the legs run the plain and the paths drain, which
    # differ only by the tag.
    def leg(track_paths: bool) -> Leg:
        run = _vm_leg(workload, basis, track_paths=track_paths, **_QUIET)

        def measured():
            seconds, counters, extras = run()
            # The one counter tagging changes by design: reported, not compared.
            extras["path_entries_tagged"] = counters.pop("path_entries_tagged")
            return seconds, counters, extras

        return measured

    return {"off": leg(False), "on": leg(True)}


def _tenant_counters(counters: dict, violation_lines: list) -> dict:
    """Work counters plus the violation log, compared as a digest (hundreds
    of rendered reports would dwarf the record)."""
    digest = hashlib.sha256("\n".join(violation_lines).encode()).hexdigest()
    return {
        **counters,
        "violations": len(violation_lines),
        "violations_sha256": digest,
    }


def _tenant_leg(workload: SuiteEntry) -> Leg:
    """The workload on a direct VM configured like a served tenant's
    (hardened, 2x growth ceiling, telemetry on, tracing off)."""

    def leg():
        vm = VirtualMachine(
            heap_bytes=workload.heap_bytes,
            assertions=True,
            telemetry=True,
            hardened=True,
            max_heap_bytes=workload.heap_bytes * 2,
        )
        workload.run(vm)
        vm.collector.sweep_all()
        counters = vm.stats.snapshot()["counters"]
        return vm.stats.gc_seconds, _tenant_counters(counters, vm.violation_lines()), {}

    return leg


def _served_leg(service, workload: SuiteEntry) -> Leg:
    """The workload submitted by name to ``service`` over ``repro-wire/1``."""
    from repro.service import ServiceClient

    traced = service.tracer is not None

    def leg():
        with ServiceClient("127.0.0.1", service.port, trace=traced or None) as client:
            client.hello()
            opened = client.open("bench", workload.name)
            streamed: list = []
            result = client.submit(opened["session"], collect=streamed)
            client.close_session(opened["session"], collect=streamed)
        extras = {
            "completed": result.get("outcome") == "completed",
            "frames_missed": client.frames_missed,
            "violation_frames_streamed": sum(
                1 for f in streamed if f.get("type") == "violation"
            ),
        }
        if traced:
            extras.update(_trace_export(service))
        counters = _tenant_counters(result["counters"], result["violations"])
        return result["gc_seconds"], counters, extras

    return leg


def _trace_export(service) -> dict:
    """The traced server's merged export so far: valid, and how big."""
    from repro.tracing.distributed import request_rows
    from repro.tracing.export import validate_chrome_trace

    payload = service.merged_trace_payload()
    rows = request_rows(service.tracer)
    return {
        "trace_valid": validate_chrome_trace(payload) == [],
        "trace_events": len(payload["traceEvents"]),
        "request_spans": len(rows),
        "requests_completed": all(row["outcome"] == "completed" for row in rows),
        "max_delivery_lag_ms": max(
            [row["max_delivery_lag_s"] * 1e3 for row in rows] or [0.0]
        ),
    }


def _service_legs(workload, basis, stack, tracing: bool = False):
    from repro.service import AssertionService, ServiceConfig

    if basis != "gc":
        raise ValueError(f"a served run reports only its pause time, not {basis!r}")

    config = ServiceConfig(http_port=None, tracing=tracing)
    service = stack.enter_context(AssertionService(config))
    return {
        "direct": _tenant_leg(workload),
        ("traced" if tracing else "served"): _served_leg(service, workload),
    }


def _dtrace_legs(workload, basis, stack):
    return _service_legs(workload, basis, stack, tracing=True)


@dataclass(frozen=True)
class Feature:
    """One on/off cost: how to build its two legs for a workload."""

    title: str
    #: ``legs(workload, basis, stack)`` -> ``{baseline: Leg, feature: Leg}``,
    #: each leg timed on ``basis``; ``stack`` holds what must outlive every
    #: trial (a server).
    legs: Callable[[SuiteEntry, str, ExitStack], dict]
    #: What the legs time: ``"gc"`` (pause), ``"mark"``, or ``"wall"``.
    basis: str = "gc"
    #: Run the workload's asserted variant (the served features do).
    asserted: bool = False


#: Every on/off cost the repo measures, by ``BENCH_perf.json`` section.
FEATURES: dict[str, Feature] = {
    "abl-snapshot": Feature("off -> every-GC snapshot capture", _snapshot_legs),
    "abl-tracing": Feature("off -> every-phase spans", _tracing_legs),
    "abl-faults": Feature("off -> armed empty-plan fault injector", _faults_legs),
    # The walks run mutator-side, outside the pause timer, like the sentinel.
    "abl-paranoid": Feature(
        "off -> per-GC wellformedness walks", _paranoid_legs, basis="wall"
    ),
    "abl-monitor": Feature("telemetry only -> hub + SLO catalog", _monitor_legs),
    "abl-telemetry": Feature("off -> telemetry on", _telemetry_legs),
    # The tag costs nothing outside the mark phase.
    "abl-path": Feature(
        "plain drain -> low-bit path tagging", _path_legs, basis="mark"
    ),
    "abl-service": Feature(
        "direct VM -> through the session server", _service_legs, asserted=True
    ),
    "abl-dtrace": Feature(
        "direct VM -> traced session server", _dtrace_legs, asserted=True
    ),
}


def _summarize(legs: dict) -> dict:
    """Fold every trial's extras of both legs into one value per key:
    a flag holds only if it held in every trial, a number is its max."""
    out: dict = {}
    for leg in legs.values():
        for extras in leg["extras"]:
            for key, value in extras.items():
                if key not in out:
                    out[key] = value
                elif isinstance(value, bool):
                    out[key] = out[key] and value
                else:
                    out[key] = max(out[key], value)
    return out


def run_ablation(section: str, workload: str = "pseudojbb", trials: int = 3) -> dict:
    """Measure one row of :data:`FEATURES` on ``workload``.

    The workload name resolves exactly as the session server resolves it,
    so a direct leg and a served leg of one name run one program.  The
    section's extras are folded to top-level keys by :func:`_summarize`.
    """
    from repro.service.session import resolve_workload

    feature = FEATURES[section]
    heap_bytes, runner = resolve_workload(workload, asserted=feature.asserted)
    entry = SuiteEntry(workload, heap_bytes, runner)
    with ExitStack() as stack:
        result = ablate(
            section,
            feature.legs(entry, feature.basis, stack),
            workload=workload,
            trials=trials,
            basis=feature.basis,
        )
    result.update(_summarize(result["legs"]))
    return result


def render_ablation(result: dict, title: str) -> str:
    """One ablation as two lines: the header, then means ± CI90 and the
    ratio, the folded extras, and the counter verdict."""
    base, leg = result["legs"].values()
    notes = ", ".join(
        f"{key} {value:.2f}" if isinstance(value, float) else f"{key} {value}"
        for key, value in _summarize(result["legs"]).items()
    )
    return (
        f"{result['name']} ({title}):\n"
        f"  {result['workload']:10} {result['basis']} time "
        f"{base['mean_s'] * 1e3:.1f}±{base['ci90_s'] * 1e3:.1f}ms -> "
        f"{leg['mean_s'] * 1e3:.1f}±{leg['ci90_s'] * 1e3:.1f}ms "
        f"({result['ratio']:.2f}x, {result['trials']} interleaved trials), "
        + (notes + ", " if notes else "")
        + f"counters {'match' if result['counters_match'] else 'DRIFT'}"
    )


def bench_loadgen(sessions: int = 50, rate: float = 200.0, seed: int = 0) -> dict:
    """The serving top line: open-loop load against a self-hosted service.

    Poisson arrivals at ``rate`` sessions/s over the default workload
    mix; the committed record carries completion counts, admission peaks,
    and the client-observed latency percentiles (open latency, session
    duration) that make serving regressions visible in review diffs.
    """
    from repro.service import LoadgenConfig, run_loadgen

    report = run_loadgen(LoadgenConfig(sessions=sessions, rate=rate, seed=seed))
    payload = report.as_dict()
    payload["ok"] = report.ok
    return payload


# -- eager vs lazy pause comparison -----------------------------------------------------


def _run_pause_leg(entry, sweep_mode: str) -> dict:
    vm = VirtualMachine(
        heap_bytes=entry.heap_bytes,
        assertions=False,
        sweep_mode=sweep_mode,
    )
    entry.run(vm)
    # Lazy mode may still owe sweep work; finish it so the work counters
    # compare like-for-like (same reclaimed set, different timing).
    vm.collector.sweep_all()
    stats = vm.stats
    hist = vm.telemetry.pause_hist
    full_events = [e for e in vm.telemetry.events if e.kind == "full"]
    return {
        "sweep_mode": sweep_mode,
        "collections": stats.collections,
        "full_collections": stats.full_collections,
        "pause_p50_ms": hist.percentile(50) * 1e3 if hist.count else 0.0,
        "pause_p99_ms": hist.percentile(99) * 1e3 if hist.count else 0.0,
        "pause_max_ms": hist.max_value * 1e3 if hist.count else 0.0,
        "mean_sweep_debt_chunks": (
            sum(e.sweep_debt_chunks for e in full_events) / len(full_events)
            if full_events
            else 0.0
        ),
        "gc_seconds": stats.gc_seconds,
        "lazy_sweep_seconds": stats.lazy_sweep_seconds,
        "counters": {
            "objects_traced": stats.objects_traced,
            "edges_traced": stats.edges_traced,
            "objects_freed": stats.objects_freed,
            "objects_swept": stats.objects_swept,
            "bytes_freed": stats.bytes_freed,
        },
    }


def bench_pauses(workloads=PAUSE_WORKLOADS) -> dict:
    """Run each workload under both sweep modes; compare pauses and work."""
    suite = build_suite()
    out: dict[str, dict] = {}
    for name in workloads:
        entry = suite[name]
        eager = _run_pause_leg(entry, "eager")
        lazy = _run_pause_leg(entry, "lazy")
        drift_keys = ("objects_traced", "edges_traced", "objects_freed")
        out[name] = {
            "eager": eager,
            "lazy": lazy,
            "pause_p99_ratio": (
                lazy["pause_p99_ms"] / eager["pause_p99_ms"]
                if eager["pause_p99_ms"]
                else 0.0
            ),
            "counters_match": all(
                eager["counters"][k] == lazy["counters"][k] for k in drift_keys
            ),
        }
    return out


# -- payload / CLI ---------------------------------------------------------------------


def perf_payload(quick: bool = False) -> dict:
    """Run every benchmark; machine-readable with provenance."""
    trials = 2 if quick else 5
    if quick:
        trace = bench_trace(n_nodes=4_000)
        alloc = bench_alloc(n_allocs=10_000, trials=trials)
        pauses = bench_pauses(("pseudojbb",))
    else:
        trace = bench_trace()
        alloc = bench_alloc(trials=trials)
        pauses = bench_pauses()
    ablations = {section: run_ablation(section, trials=trials) for section in FEATURES}
    loadgen = bench_loadgen(sessions=12) if quick else bench_loadgen()
    counters_match = (
        trace["counters_match"]
        and alloc["counters_match"]
        and all(row["counters_match"] for row in ablations.values())
        and ablations["abl-dtrace"]["trace_valid"]
        and all(row["counters_match"] for row in pauses.values())
    )
    return {
        "schema": "repro-bench-perf/1",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "quick": quick,
        "trace": trace,
        "alloc": alloc,
        "pauses": pauses,
        **ablations,
        "service-loadgen": loadgen,
        "counters_match": counters_match,
    }


def dump_perf(payload: dict, path: str = "BENCH_perf.json") -> str:
    """Write :func:`perf_payload` as JSON; returns the path written."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def render_perf(payload: dict) -> str:
    """Human-readable summary of a perf payload."""
    trace, alloc = payload["trace"], payload["alloc"]
    lines = ["trace microbench (edges/s by fused drain, same heap):"]
    lines.append(
        "  "
        + ", ".join(
            f"{name} {row['edges_per_second']:,.0f}"
            for name, row in trace["drains"].items()
        )
        + f" ({trace['drains']['plain']['edges_traced']} edges, "
        f"counters {'match' if trace['counters_match'] else 'DRIFT'})"
    )
    lines.append(
        f"  path probe: max depth {trace['path_probe']['max_depth']}, "
        f"{trace['path_probe']['sampled_paths']} cheap paths sampled"
    )
    lines.append(render_ablation(alloc, "uncached -> run cache"))
    lines.append(f"  fast-hit rate {alloc['fast_hit_rate']:.1%}")
    lines.append("pause comparison (eager vs lazy sweep):")
    for name, row in sorted(payload["pauses"].items()):
        eager, lazy = row["eager"], row["lazy"]
        lines.append(
            f"  {name:10} p99 {eager['pause_p99_ms']:.3f}ms -> "
            f"{lazy['pause_p99_ms']:.3f}ms "
            f"({row['pause_p99_ratio']:.2f}x), "
            f"{eager['full_collections']} full GCs, "
            f"mean debt {lazy['mean_sweep_debt_chunks']:.1f} chunks, "
            f"counters {'match' if row['counters_match'] else 'DRIFT'}"
        )
    for section, feature in FEATURES.items():
        if section in payload:
            lines.append(render_ablation(payload[section], feature.title))
    loadgen = payload.get("service-loadgen")
    if loadgen is not None:
        lines.append("service load generator (open-loop Poisson arrivals):")
        lines.append(
            f"  {loadgen['completed']}/{loadgen['sessions']} sessions completed, "
            f"{loadgen['rejected']} rejected, peak {loadgen['peak_concurrent']} "
            f"concurrent in {loadgen['wall_s']:.2f}s"
        )
        lines.append(
            f"  open p50/p99 {loadgen['open_latency_s']['p50'] * 1e3:.2f}/"
            f"{loadgen['open_latency_s']['p99'] * 1e3:.2f}ms, "
            f"session p50/p99 {loadgen['session_duration_s']['p50'] * 1e3:.2f}/"
            f"{loadgen['session_duration_s']['p99'] * 1e3:.2f}ms, "
            f"{loadgen['violation_frames']} violation frames streamed"
        )
    lines.append(
        "work counters identical across modes: "
        + ("yes" if payload["counters_match"] else "NO — investigate")
    )
    return "\n".join(lines)
