"""The traced run's span recorder and the per-layer ledger built from it.

Spans are recorded only from the benchmark's side: the ``instrument_*``
functions wrap the public entry points of each layer of the program
(handles and ``vm.new``, the collector's ``allocate``/``collect``, the
assertion API, telemetry emission, the MiniJ interpreter, wire framing)
and :meth:`SpanRecorder.unwrap_all` puts the originals back, so untraced
runs in the same process execute the program unmodified.

Each span is ``(name, start, end, parent, request)``.  A layer is the
prefix of a span name before the first dot (``gc.collect`` belongs to
``gc``).  A span's self time is its duration minus the time its child
spans cover; the self times of every span under a root, plus the root's
own self time (``unattributed``), add up to the root's duration exactly.
Self times are accumulated online per ``(request, name)`` so hot spans
(millions of field reads) cost no memory; the first :data:`KEEP_SPANS`
spans of each thread are also kept whole and written out at the end.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Callable, Iterable, Optional

#: Whole spans kept per thread for the written trace (aggregates are exact
#: regardless of this cap).
KEEP_SPANS = 50_000

#: Name of the root span every measured unit of work runs under.
ROOT = "unattributed"

_perf = time.perf_counter


class _ThreadState:
    __slots__ = ("stack", "agg", "spans", "request")

    def __init__(self) -> None:
        #: Open spans: ``[kept_index, child_seconds]``.
        self.stack: list[list] = []
        #: ``(request, name) -> [count, total_s, self_s]``.
        self.agg: dict[tuple, list] = {}
        self.spans: list[list] = []
        self.request: Optional[str] = None


class SpanRecorder:
    """Thread-aware in-memory span recorder."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._undo: list[Callable[[], None]] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    # -- recording -------------------------------------------------------------------

    def _begin(self, state: _ThreadState, name: str, start: float) -> list:
        spans = state.spans
        index = -1
        if len(spans) < KEEP_SPANS:
            parent = state.stack[-1][0] if state.stack else -1
            index = len(spans)
            spans.append([name, start, None, parent, state.request])
        frame = [index, 0.0]
        state.stack.append(frame)
        return frame

    def _end(self, state: _ThreadState, name: str, frame: list, start: float, end: float) -> None:
        stack = state.stack
        stack.pop()
        duration = end - start
        key = (state.request, name)
        row = state.agg.get(key)
        if row is None:
            state.agg[key] = [1, duration, duration - frame[1]]
        else:
            row[0] += 1
            row[1] += duration
            row[2] += duration - frame[1]
        if stack:
            stack[-1][1] += duration
        if frame[0] >= 0:
            state.spans[frame[0]][2] = end

    def traced(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span called ``name``."""
        begin, finish, state_of = self._begin, self._end, self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = state_of()
            start = _perf()
            frame = begin(state, name, start)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(state, name, frame, start, _perf())

        return wrapper

    def call_for(self, request: Optional[str], fn: Callable, *args, **kwargs):
        """Call ``fn`` with spans it records attributed to ``request``."""
        state = self._state()
        previous, state.request = state.request, request
        try:
            return fn(*args, **kwargs)
        finally:
            state.request = previous

    def root(self, request: Optional[str] = None) -> "_Root":
        """Context manager for one measured unit of work (a root span)."""
        return _Root(self, request)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a traced wrapper, remembering the original."""
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(self.traced(name, raw.__func__))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(self.traced(name, raw.__func__))
        else:
            replacement = self.traced(name, raw)
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, raw))

    def unwrap_all(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results ---------------------------------------------------------------------

    def by_request(self) -> dict:
        """``request -> name -> [count, total_s, self_s]`` summed over threads."""
        out: dict = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for (request, name), (count, total, self_s) in list(state.agg.items()):
                row = out.setdefault(request, {}).setdefault(name, [0, 0.0, 0.0])
                row[0] += count
                row[1] += total
                row[2] += self_s
        return out

    def aggregates(self, requests: Optional[Iterable] = None) -> dict[str, list]:
        """``name -> [count, total_s, self_s]``, optionally restricted to the
        given request ids."""
        return merge_requests(self.by_request(), requests)

    def kept_spans(self) -> list[tuple]:
        out = []
        with self._lock:
            states = list(self._states)
        for thread_index, state in enumerate(states):
            for name, start, end, parent, request in state.spans:
                if end is not None:
                    out.append((name, start, end, parent, request, thread_index))
        return out

    def write(self, path: str, meta: Optional[dict] = None) -> None:
        """Write the kept spans and the aggregates as one JSON document."""
        doc = {
            "meta": meta or {},
            "aggregates": {
                name: {"count": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.aggregates().items())
            },
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "request": r, "thread": t}
                for n, s, e, p, r, t in self.kept_spans()
            ],
        }
        with open(path, "w") as handle:
            json.dump(doc, handle)


class _Root:
    def __init__(self, recorder: SpanRecorder, request: Optional[str]):
        self.recorder = recorder
        self.request = request

    def __enter__(self) -> "_Root":
        state = self.state = self.recorder._state()
        self.previous = state.request
        state.request = self.request
        self.start = _perf()
        self.frame = self.recorder._begin(state, ROOT, self.start)
        return self

    def __exit__(self, *exc) -> None:
        end = _perf()
        self.recorder._end(self.state, ROOT, self.frame, self.start, end)
        self.state.request = self.previous
        self.duration = end - self.start


def merge_requests(by_request: dict, requests: Optional[Iterable] = None) -> dict[str, list]:
    """Sum per-request aggregates over ``requests`` (all when None)."""
    wanted = None if requests is None else set(requests)
    out: dict[str, list] = {}
    for request, rows in by_request.items():
        if wanted is not None and request not in wanted:
            continue
        for name, (count, total, self_s) in rows.items():
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += count
            row[1] += total
            row[2] += self_s
    return out


def self_times(spans: Iterable[tuple]) -> dict[str, float]:
    """Offline self time per span name from ``(name, start, end, parent)``
    tuples, ``parent`` being an index into the same sequence or -1.

    The reference arithmetic the online recorder must agree with.
    """
    spans = list(spans)
    covered = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = {}
    for index, (name, start, end, *_rest) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - covered[index]
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_self_times(aggregates: dict[str, list]) -> dict[str, float]:
    """Self seconds per layer (the root's self time under ``unattributed``)."""
    out: dict[str, float] = {}
    for name, (_count, _total, self_s) in aggregates.items():
        layer = layer_of(name)
        out[layer] = out.get(layer, 0.0) + self_s
    return out


# -- instrumentation of the program's layers -------------------------------------------


def instrument_direct(recorder: SpanRecorder) -> None:
    """Wrap the layers a direct (in-process) workload calls into."""
    from repro.core.api import GcAssertions
    from repro.core.engine import AssertionEngine
    from repro.core.reporting import HeapPath
    from repro.gc.marksweep import MarkSweepCollector
    from repro.runtime.handles import Handle
    from repro.runtime.vm import VirtualMachine
    from repro.telemetry import Telemetry

    wrap = recorder.wrap
    wrap(Handle, "__getitem__", "runtime.field_read")
    wrap(Handle, "__setitem__", "runtime.field_write")
    wrap(VirtualMachine, "new", "runtime.new")
    wrap(VirtualMachine, "new_array", "runtime.new")
    wrap(MarkSweepCollector, "allocate", "heap.alloc")
    wrap(MarkSweepCollector, "collect", "gc.collect")
    for api in (
        "assert_dead", "assert_alldead", "start_region", "assert_instances",
        "assert_unshared", "assert_ownedby", "retract_ownedby", "retract_dead",
    ):
        wrap(GcAssertions, api, "core.register")
    wrap(AssertionEngine, "pre_mark", "core.ownership")
    wrap(HeapPath, "from_tracer", "core.path_report")
    for emit in ("begin_collection", "finish_collection", "record_violation", "record_lazy_slice"):
        wrap(Telemetry, emit, "telemetry.emit")
    wrap(Telemetry, "_emit", "telemetry.event")


def instrument_interp(recorder: SpanRecorder) -> None:
    from repro.interp.interpreter import Interpreter

    recorder.wrap(Interpreter, "load", "interp.load")
    recorder.wrap(Interpreter, "run", "interp.run")


def instrument_wire(recorder: SpanRecorder, module) -> None:
    """Wrap frame encoding/decoding as seen from ``module`` (which imported
    ``encode_frame`` by name) and the shared decoder class."""
    from repro.service import wire

    recorder.wrap(module, "encode_frame", "wire.encode")
    if module is not wire:
        recorder.wrap(wire, "encode_frame", "wire.encode")
    recorder.wrap(wire.FrameDecoder, "feed", "wire.decode")


# -- the per-layer metric set ------------------------------------------------------------

#: Every per-layer metric, with its unit.  A layer a workload never enters
#: reports 0 (the direct workloads never reach ``interp``, ``service``,
#: ``wire``, ``client`` or ``loadgen``).
PER_LAYER_UNITS: dict[str, str] = {
    "runtime.field_reads": "count",
    "runtime.field_read_s": "s",
    "runtime.field_writes": "count",
    "runtime.field_write_s": "s",
    "runtime.new_calls": "count",
    "runtime.new_s": "s",
    "heap.allocs": "count",
    "heap.alloc_s": "s",
    "heap.fast_hit_ratio": "ratio",
    "gc.collections": "count",
    "gc.pause_s": "s",
    "gc.pause_p90_ms": "ms",
    "gc.root_scan_s": "s",
    "gc.mark_drain_s": "s",
    "gc.mark_drain.plain_s": "s",
    "gc.mark_drain.paths_s": "s",
    "gc.mark_drain.checks_s": "s",
    "gc.sweep_s": "s",
    "gc.lazy_sweep_s": "s",
    "gc.objects_traced": "count",
    "gc.edges_traced": "count",
    "gc.mark_edges_per_s": "1/s",
    "gc.freed_ratio": "ratio",
    "core.register_calls": "count",
    "core.register_s": "s",
    "core.ownership_s": "s",
    "core.ownee_search_probes": "count",
    "core.ownees_checked": "count",
    "core.header_bit_checks": "count",
    "core.violations": "count",
    "core.path_reports": "count",
    "core.path_report_s": "s",
    "core.path_report_share": "ratio",
    "telemetry.events": "count",
    "telemetry.emit_s": "s",
    "interp.load_s": "s",
    "interp.run_s": "s",
    "service.session_setup_s": "s",
    "service.admission_wait_s": "s",
    "service.executor_wait_s": "s",
    "service.workload_execution_s": "s",
    "service.violation_delivery_s": "s",
    "service.frames_out": "count",
    "service.violation_frames": "count",
    "service.dropped_frames": "count",
    "service.rejected": "count",
    "wire.frames": "count",
    "wire.encode_s": "s",
    "wire.decode_s": "s",
    "client.open_s": "s",
    "client.submit_s": "s",
    "client.close_s": "s",
    "loadgen.lag_tail_ms": "ms",
    "loadgen.backlog_max": "count",
    "loadgen.lag_s": "s",
    "layer.runtime_s": "s",
    "layer.heap_s": "s",
    "layer.gc_s": "s",
    "layer.core_s": "s",
    "layer.telemetry_s": "s",
    "layer.interp_s": "s",
    "layer.service_s": "s",
    "layer.loadgen_s": "s",
    "unattributed_s": "s",
    "traced_total_s": "s",
    "trace_overhead": "ratio",
}

#: Metric prefixes of the layers only a served workload enters.
SERVED_ONLY = ("interp.", "service.", "wire.", "client.", "loadgen.", "layer.interp_s",
               "layer.service_s", "layer.loadgen_s")

#: Layers whose self times, with ``unattributed_s``, make up the traced total.
LEDGER_LAYERS = ("runtime", "heap", "gc", "core", "telemetry", "interp", "service", "loadgen")

#: GcStats fields summed over the traced VMs.
_GC_FIELDS = (
    "collections", "gc_seconds", "mark_seconds", "sweep_seconds", "lazy_sweep_seconds",
    "objects_traced", "edges_traced", "objects_swept", "objects_freed", "alloc_fast_hits",
    "ownee_search_probes", "ownees_checked", "header_bit_checks", "violations_detected",
)


class GcBreakdown:
    """Collector-internal figures summed over the traced VMs: ``GcStats``
    counters and timers, the VM span recorder's root-scan and drain spans,
    and ``piggyback_report``'s split of mark time."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}

    def _add(self, key: str, value: float) -> None:
        self.totals[key] = self.totals.get(key, 0.0) + value

    def add_vm(self, vm, piggyback: bool = True) -> dict:
        """Fold one finished VM in; returns its own figures."""
        from repro.tracing.report import aggregate_spans, piggyback_report

        mine: dict[str, float] = {}
        for name in _GC_FIELDS:
            mine[name] = getattr(vm.stats, name)
        if vm.span_tracer is not None:
            spans = aggregate_spans(vm.span_tracer.events)
            for phase in ("root_scan", "mark_drain"):
                mine[phase + "_s"] = spans.get(phase, {}).get("total_s", 0.0)
        if piggyback and vm.engine is not None and vm.stats.collections:
            components = piggyback_report(vm)["components"]
            mine["plain_s"] = components["plain_trace"]["seconds"]
            mine["paths_s"] = components["path_bookkeeping"]["seconds"]
            mine["checks_s"] = components["inline_header_checks"]["seconds"]
        for key, value in mine.items():
            self._add(key, value)
        return mine

    def merge(self, totals: dict) -> None:
        for key, value in totals.items():
            self._add(key, value)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(agg: dict[str, list], gc: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from span aggregates and a :class:`GcBreakdown`."""

    def count(name: str) -> int:
        return agg.get(name, [0, 0.0, 0.0])[0]

    def self_s(*names: str) -> float:
        return sum(agg.get(name, [0, 0.0, 0.0])[2] for name in names)

    g = gc.get
    out = {
        "runtime.field_reads": count("runtime.field_read"),
        "runtime.field_read_s": self_s("runtime.field_read"),
        "runtime.field_writes": count("runtime.field_write"),
        "runtime.field_write_s": self_s("runtime.field_write"),
        "runtime.new_calls": count("runtime.new"),
        "runtime.new_s": self_s("runtime.new"),
        "heap.allocs": count("heap.alloc"),
        "heap.alloc_s": self_s("heap.alloc"),
        "heap.fast_hit_ratio": _ratio(g("alloc_fast_hits", 0), count("heap.alloc")),
        "gc.collections": g("collections", 0),
        "gc.pause_s": g("gc_seconds", 0.0),
        "gc.root_scan_s": g("root_scan_s", 0.0),
        "gc.mark_drain_s": g("mark_drain_s", 0.0),
        "gc.mark_drain.plain_s": g("plain_s", 0.0),
        "gc.mark_drain.paths_s": g("paths_s", 0.0),
        "gc.mark_drain.checks_s": g("checks_s", 0.0),
        "gc.sweep_s": g("sweep_seconds", 0.0),
        "gc.lazy_sweep_s": g("lazy_sweep_seconds", 0.0),
        "gc.objects_traced": g("objects_traced", 0),
        "gc.edges_traced": g("edges_traced", 0),
        "gc.mark_edges_per_s": _ratio(g("edges_traced", 0), g("mark_seconds", 0.0)),
        "gc.freed_ratio": _ratio(g("objects_freed", 0), g("objects_swept", 0)),
        "core.register_calls": count("core.register"),
        "core.register_s": self_s("core.register"),
        "core.ownership_s": self_s("core.ownership"),
        "core.ownee_search_probes": g("ownee_search_probes", 0),
        "core.ownees_checked": g("ownees_checked", 0),
        "core.header_bit_checks": g("header_bit_checks", 0),
        "core.violations": g("violations_detected", 0),
        "core.path_reports": count("core.path_report"),
        "core.path_report_s": self_s("core.path_report"),
        "telemetry.events": count("telemetry.event"),
        "telemetry.emit_s": self_s("telemetry.emit", "telemetry.event"),
        "interp.load_s": self_s("interp.load"),
        "interp.run_s": self_s("interp.run"),
        "wire.frames": count("wire.encode"),
        "wire.encode_s": self_s("wire.encode"),
        "wire.decode_s": self_s("wire.decode"),
    }
    layers = layer_self_times(agg)
    for layer in LEDGER_LAYERS:
        out[f"layer.{layer}_s"] = layers.get(layer, 0.0)
    out["unattributed_s"] = layers.get(ROOT, 0.0)
    return out


def ledger_gap(metrics: dict[str, float]) -> float:
    """Traced total minus (layer self times + unattributed): 0 when the
    ledger adds up."""
    parts = sum(metrics[f"layer.{layer}_s"] for layer in LEDGER_LAYERS)
    return metrics["traced_total_s"] - parts - metrics["unattributed_s"]
