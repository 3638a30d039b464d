"""The §2.7 path-tracking worklist: full root-to-object paths."""

from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.reporting import AssertionKind, HeapPath, PathEntry
from repro.errors import InvalidAddressError
from repro.gc.stats import GcStats
from repro.gc.tracer import Tracer
from repro.heap import header as hdr
from repro.heap.layout import ADDRESS_TAG_BIT, NULL
from repro.heap.object_model import FieldKind
from repro.runtime.vm import VirtualMachine
from repro.snapshot.capture import SnapshotSink
from repro.verify.modelcheck import default_cells
from tests.conftest import build_chain, make_node_class


class TestPathReporting:
    def test_path_runs_root_to_object(self, vm, node_class):
        nodes = build_chain(vm, node_class, 4)
        vm.assertions.assert_dead(nodes[3], site="path-test")
        vm.gc()
        violation = vm.engine.log.violations[0]
        assert violation.path.type_names() == ["Node"] * 4
        assert "static 'head'" in violation.path.root_description

    def test_path_identifies_frame_root(self, vm, node_class):
        frame = vm.current_thread.push_frame("holder_method")
        with vm.scope():
            node = vm.new(node_class)
            frame.set_ref("keeper", node.address)
        vm.assertions.assert_dead(node, site="frame-path")
        vm.gc()
        violation = vm.engine.log.violations[0]
        assert "keeper" in violation.path.root_description
        assert "holder_method" in violation.path.root_description

    def test_path_entries_are_instances_not_just_types(self, vm, node_class):
        nodes = build_chain(vm, node_class, 3)
        vm.assertions.assert_dead(nodes[2], site="instances")
        vm.gc()
        entries = vm.engine.log.violations[0].path.entries
        addresses = [e.address for e in entries]
        assert addresses == [n.obj.address for n in nodes]
        hashes = {e.identity_hash for e in entries}
        assert len(hashes) == 3  # distinct instances

    def test_path_through_arrays_names_array_types(self, vm, node_class):
        with vm.scope():
            arr = vm.new_array(node_class, 3)
            target = vm.new(node_class)
            arr[1] = target
            vm.statics.set_ref("arr", arr.address)
            vm.assertions.assert_dead(target, site="array-path")
        vm.gc()
        names = vm.engine.log.violations[0].path.type_names()
        assert names == ["Node[]", "Node"]

    def test_direct_root_reference_path(self, vm, node_class):
        with vm.scope():
            node = vm.new(node_class)
            vm.statics.set_ref("direct", node.address)
            vm.assertions.assert_dead(node, site="direct")
        vm.gc()
        violation = vm.engine.log.violations[0]
        assert violation.path.type_names() == ["Node"]
        assert "direct" in violation.path.root_description

    def test_figure1_rendering_format(self, vm, node_class):
        nodes = build_chain(vm, node_class, 2)
        vm.assertions.assert_dead(nodes[1], site="fmt")
        vm.gc()
        text = vm.engine.log.violations[0].render()
        assert text.startswith("Warning: an object that was asserted dead is reachable.")
        assert "Type: Node" in text
        assert "Path to object:" in text
        assert "->" in text

    def test_deep_path_complete(self, vm, node_class):
        nodes = build_chain(vm, node_class, 50)
        vm.assertions.assert_dead(nodes[-1], site="deep")
        vm.gc()
        assert len(vm.engine.log.violations[0].path) == 50


class TestPathTrackingToggle:
    def test_disabled_paths_still_detect_violations(self, node_class):
        vm = VirtualMachine(heap_bytes=1 << 20, track_paths=False)
        cls = make_node_class(vm)
        nodes = build_chain(vm, cls, 3)
        vm.assertions.assert_dead(nodes[2], site="no-paths")
        vm.gc()
        assert len(vm.engine.log) == 1
        violation = vm.engine.log.violations[0]
        assert violation.path is None or len(violation.path) <= 1

    def test_tagged_entries_counted_only_when_tracking(self):
        vm_on = VirtualMachine(heap_bytes=1 << 20, track_paths=True)
        cls_on = make_node_class(vm_on)
        build_chain(vm_on, cls_on, 10)
        vm_on.gc()
        assert vm_on.stats.path_entries_tagged >= 10

        vm_off = VirtualMachine(heap_bytes=1 << 20, track_paths=False)
        cls_off = make_node_class(vm_off)
        build_chain(vm_off, cls_off, 10)
        vm_off.gc()
        assert vm_off.stats.path_entries_tagged == 0

    def test_marking_identical_with_and_without_tracking(self):
        results = []
        for track in (True, False):
            vm = VirtualMachine(heap_bytes=1 << 20, track_paths=track)
            cls = make_node_class(vm)
            nodes = build_chain(vm, cls, 20)
            nodes[10]["next"] = None
            vm.gc()
            results.append(vm.heap.stats.objects_live)
        assert results[0] == results[1]


class _PathProbe:
    """Engine stub recording the cheap path API at every first encounter."""

    def __init__(self):
        self.rows = []

    def on_first_encounter(self, obj, tracer, parent):
        cheap = tracer.current_path_addresses(obj.address)
        root_desc, full = tracer.current_path(obj)
        self.rows.append((obj.address, tracer.path_depth(), cheap, full, root_desc))

    def on_repeat_encounter(self, obj, tracer, parent):
        pass


class TestCheapPathApi:
    """current_path_addresses/path_depth: the address-only and length-only views."""

    def _trace_with_probe(self, vm):
        probe = _PathProbe()
        tracer = Tracer(vm.heap, GcStats(), probe, track_paths=True)
        tracer.trace(vm.root_entries())
        return probe, tracer

    def test_cheap_addresses_agree_with_full_path(self, vm, node_class):
        nodes = build_chain(vm, node_class, 6)
        probe, _tracer = self._trace_with_probe(vm)
        assert probe.rows, "probe saw no encounters"
        for _address, _depth, cheap, full, _root in probe.rows:
            assert cheap == [obj.address for obj in full]

    def test_deepest_node_path_is_the_chain(self, vm, node_class):
        nodes = build_chain(vm, node_class, 6)
        probe, _tracer = self._trace_with_probe(vm)
        tail = nodes[-1].obj.address
        rows = [row for row in probe.rows if row[0] == tail]
        assert rows[0][2] == [n.obj.address for n in nodes]

    def test_depth_counts_parents_only(self, vm, node_class):
        build_chain(vm, node_class, 4)
        probe, _tracer = self._trace_with_probe(vm)
        for _address, depth, cheap, _full, _root in probe.rows:
            # The tip is appended by current_path_addresses; the worklist
            # holds its (possibly empty) parent chain.
            assert depth in (len(cheap), len(cheap) - 1)

    def test_empty_outside_a_drain(self, vm, node_class):
        build_chain(vm, node_class, 3)
        _probe, tracer = self._trace_with_probe(vm)
        assert tracer.current_path_addresses() == []
        assert tracer.path_depth() == 0

    def test_tracking_disabled_returns_just_the_tip(self, vm, node_class):
        tracer = Tracer(vm.heap, GcStats(), None, track_paths=False)
        assert tracer.current_path_addresses(0x1000) == [0x1000]
        assert tracer.current_path_addresses() == []


class TestBaseConfigurationHasNoInfrastructure:
    def test_base_vm_has_no_engine(self, base_vm):
        assert base_vm.engine is None
        assert base_vm.assertions is None

    def test_base_vm_collects_correctly(self, base_vm):
        cls = make_node_class(base_vm)
        nodes = build_chain(base_vm, cls, 6)
        nodes[2]["next"] = None
        base_vm.gc()
        assert base_vm.heap.stats.objects_live == 3

    def test_base_vm_counts_no_header_checks(self, base_vm):
        cls = make_node_class(base_vm)
        build_chain(base_vm, cls, 6)
        base_vm.gc()
        assert base_vm.stats.header_bit_checks == 0


# -- incremental path cache vs. a full worklist scan -----------------------------

#: The model checker's collector configurations (its cells minus the
#: assertions on/off axis: path reports need the assertion engine).
COLLECTOR_CELLS = sorted({(cell.collector, cell.sweep_mode) for cell in default_cells()})

N_OBJECTS = 8
N_FIELDS = 2


def reference_path(tracer, tip_address=None):
    """The §2.7 reconstruction done the slow way: scan the whole worklist
    for tagged entries, then append the tip unless it is already last."""
    chain = [e ^ ADDRESS_TAG_BIT for e in tracer._stack if e & ADDRESS_TAG_BIT]
    if tip_address is not None and (not chain or chain[-1] != tip_address):
        chain.append(tip_address)
    return chain


class _PushOnceStack(list):
    """A worklist that fails the trace if any value, tagged or untagged, is
    pushed twice -- the invariant the incremental cache rests on."""

    def __init__(self):
        super().__init__()
        self.pushed = set()

    def append(self, value):
        assert value not in self.pushed, f"{value:#x} pushed twice in one trace"
        self.pushed.add(value)
        super().append(value)


def check_against_reference(tracer, tip):
    """Every cached path view equals the full-scan reference right now."""
    tip_address = tip.address if tip is not None else None
    expected = reference_path(tracer, tip_address)
    assert tracer.current_path_addresses(tip_address) == expected
    assert tracer.path_depth() == len(reference_path(tracer))
    root_desc, objects = tracer.current_path(tip)
    assert [obj.address for obj in objects] == expected
    assert root_desc == (tracer._root_descs.get(expected[0]) if expected else None)
    if tip is not None and objects:
        assert objects[-1] is tip
    return expected


@contextmanager
def checked_reports():
    """Route every path report through the full-scan reference.

    Each trace's worklist asserts the push-once invariant, and each
    :meth:`HeapPath.from_tracer` result is compared with the reference:
    addresses, root description, entry fields, and entry sharing.
    """
    reports = []
    original_scan = Tracer.scan_roots
    original_report = HeapPath.from_tracer.__func__

    def scan_roots(self, roots):
        self._stack = _PushOnceStack()
        original_scan(self, roots)

    def from_tracer(cls, tracer, tip):
        path = original_report(cls, tracer, tip)
        expected = check_against_reference(tracer, tip)
        assert [entry.address for entry in path.entries] == expected
        assert path.root_description == tracer._root_descs.get(expected[0])
        for entry in path.entries:
            fresh = PathEntry(tracer.heap.get(entry.address))
            assert (entry.type_name, entry.identity_hash) == (
                fresh.type_name,
                fresh.identity_hash,
            )
            assert tracer.path_entries[entry.address] is entry
        reports.append((tracer, tip.address, path))
        return path

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Tracer, "scan_roots", scan_roots)
        patch.setattr(HeapPath, "from_tracer", classmethod(from_tracer))
        yield reports


class _ReferenceProbe:
    """Hook engine that checks the cache at every encounter of a trace, or
    only at the encounters of the addresses in ``only``."""

    def __init__(self, only=None):
        self.only = only
        self.paths = []

    @property
    def depths(self):
        return [len(path) for path in self.paths]

    def on_first_encounter(self, obj, tracer, parent):
        if self.only is None or obj.address in self.only:
            self.paths.append(check_against_reference(tracer, obj))

    on_repeat_encounter = on_first_encounter


def _cell_vm(collector, sweep_mode, **kwargs):
    if collector != "semispace":
        kwargs["sweep_mode"] = sweep_mode
    return VirtualMachine(heap_bytes=1 << 20, collector=collector, telemetry=False, **kwargs)


def _graph_class(vm):
    return vm.define_class(
        "G", [(f"f{i}", FieldKind.REF) for i in range(N_FIELDS)] + [("id", FieldKind.INT)]
    )


def _probe_trace(vm, tracer=None, roots=None, only=None):
    probe = _ReferenceProbe(only)
    if tracer is None:
        tracer = Tracer(vm.heap, GcStats(), probe, track_paths=True)
    else:
        tracer.engine = probe
    tracer._stack = _PushOnceStack()
    tracer.trace(vm.root_entries() if roots is None else roots)
    return probe, tracer


def _clear_marks(vm):
    for obj in vm.heap:
        obj.status &= ~(hdr.MARK_BIT | hdr.OWNED_BIT)


edge_strategy = st.lists(
    st.tuples(
        st.integers(0, N_OBJECTS - 1),
        st.integers(0, N_FIELDS - 1),
        st.integers(0, N_OBJECTS - 1),
    ),
    max_size=20,
)
index_set = st.sets(st.integers(0, N_OBJECTS - 1), max_size=3)


@pytest.mark.parametrize("collector,sweep_mode", COLLECTOR_CELLS)
@given(
    edges=edge_strategy,
    roots=st.sets(st.integers(0, N_OBJECTS - 1), min_size=1, max_size=3),
    dead=index_set,
    unshared=index_set,
    owned=st.lists(
        st.tuples(st.integers(0, N_OBJECTS - 1), st.integers(0, N_OBJECTS - 1)),
        max_size=2,
    ),
    dropped=index_set,
)
@settings(
    max_examples=25,
    deadline=None,
    report_multiple_bugs=False,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_reported_paths_match_full_scan(
    collector, sweep_mode, edges, roots, dead, unshared, owned, dropped
):
    """Random heap graphs: every report of two collections (dead, unshared
    second path, unowned ownee) equals the full-scan reference, and so
    does the cache at every encounter of a probe trace."""
    vm = _cell_vm(collector, sweep_mode)
    cls = _graph_class(vm)
    with vm.scope("graph"):
        handles = [vm.new(cls, id=i) for i in range(N_OBJECTS)]
        for src, field, dst in edges:
            handles[src][f"f{field}"] = handles[dst]
        for r in roots:
            vm.statics.set_ref(f"root{r}", handles[r].address)
        for i in dead:
            vm.assertions.assert_dead(handles[i], site=f"dead{i}")
        for i in unshared:
            vm.assertions.assert_unshared(handles[i], site=f"unshared{i}")
        claimed = set()
        for owner, ownee in owned:
            if owner != ownee and ownee not in claimed:
                claimed.add(ownee)
                vm.assertions.assert_ownedby(handles[owner], handles[ownee])
    # Out of the scope the handles no longer root anything: paths run from
    # the statics through the random edges.
    probe, _tracer = _probe_trace(vm)
    assert len(probe.depths) >= len(roots)
    _clear_marks(vm)

    with checked_reports() as reports:
        vm.gc()
        for r in dropped & roots:
            vm.statics.set_ref(f"root{r}", NULL)
        vm.gc()
    with_paths = [v for v in vm.engine.log if v.path is not None and len(v.path)]
    assert len(reports) == len(with_paths)


@pytest.mark.parametrize("collector,sweep_mode", COLLECTOR_CELLS)
def test_every_report_kind_is_checked(collector, sweep_mode):
    """One heap that raises a dead, an unshared and an unowned-ownee report."""
    vm = _cell_vm(collector, sweep_mode)
    cls = _graph_class(vm)
    with vm.scope("kinds"):
        a, b, c, shared, dead, owner, ownee = [vm.new(cls, id=i) for i in range(7)]
        a["f0"], a["f1"] = b, c
        b["f0"] = c["f0"] = shared
        shared["f0"] = dead
        vm.statics.set_ref("a", a.address)
        vm.statics.set_ref("owner", owner.address)
        vm.statics.set_ref("stray", ownee.address)
        vm.assertions.assert_unshared(shared, site="shared")
        vm.assertions.assert_dead(dead, site="dead")
        vm.assertions.assert_ownedby(owner, ownee)
    with checked_reports() as reports:
        vm.gc()
    log = vm.engine.log
    assert sorted(v.kind.value for v in log) == [
        "assert-dead",
        "assert-ownedby",
        "assert-unshared",
    ]
    assert len(reports) == 3
    names = {v.kind: v.path.type_names() for v in log}
    assert names[AssertionKind.DEAD] == ["G"] * 4
    assert names[AssertionKind.UNSHARED] == ["G"] * 3
    assert names[AssertionKind.OWNED_BY] == ["G"]
    # The dead and unshared paths both run through a and shared: one entry each.
    by_address = {}
    for _tracer, _tip, path in reports:
        for entry in path.entries:
            assert by_address.setdefault(entry.address, entry) is entry


class TestIncrementalPathCache:
    def test_cache_outlives_deep_pops_and_repushes(self, vm):
        """Two deep chains from two roots: the cache syncs at depth 40,
        the worklist drains to the roots, and a second chain is pushed over
        the positions the first one used."""
        cls = _graph_class(vm)
        with vm.scope("chains"):
            for name in ("left", "right"):
                prev = None
                for i in range(40):
                    node = vm.new(cls, id=i)
                    if prev is None:
                        vm.statics.set_ref(name, node.address)
                    else:
                        prev["f0"] = node
                        prev["f1"] = node  # a repeat encounter at every depth
                    prev = node
        probe, tracer = _probe_trace(vm)
        depths = probe.depths
        deepest = depths.index(40)
        # Back to the second root's first child, then all the way down again.
        shallow = depths.index(2, deepest)
        assert max(depths[shallow:]) == 40
        assert tracer.path_depth() == 0
        assert tracer.current_path_addresses() == []

    def test_fresh_scan_roots_starts_a_new_cache(self, vm):
        """The same tracer re-run from different roots, reporting only at
        ``leaf``: position 1 holds the same tagged entry in both traces
        while position 0 differs, so a cache kept across traces would
        report the first trace's root."""
        cls = _graph_class(vm)
        with vm.scope("retrace"):
            first, second, shared, leaf = [vm.new(cls, id=i) for i in range(4)]
            first["f0"] = shared
            second["f0"] = shared
            shared["f0"] = leaf
            only = {leaf.address}
            probe, tracer = _probe_trace(vm, roots=[("first", first.address)], only=only)
            assert probe.paths == [[h.address for h in (first, shared, leaf)]]
            _clear_marks(vm)
            probe, tracer = _probe_trace(
                vm, tracer, roots=[("second", second.address)], only=only
            )
            assert probe.paths == [[h.address for h in (second, shared, leaf)]]

    def test_retry_tracer_after_a_mid_mark_fault(self):
        """A hardened collection whose first mark faults after one report
        re-marks with a fresh tracer; the retry's reports are checked
        against its own worklist, not the abandoned tracer's cache."""
        vm = VirtualMachine(heap_bytes=1 << 20, hardened=True)
        nodes = build_chain(vm, make_node_class(vm), 5)
        vm.assertions.assert_dead(nodes[2], site="mid")
        vm.assertions.assert_dead(nodes[4], site="tail")
        with checked_reports() as reports:
            checked = HeapPath.from_tracer.__func__
            faulted = []

            def faulting(cls_, tracer, tip):
                path = checked(cls_, tracer, tip)
                if not faulted:
                    faulted.append(tracer)
                    raise InvalidAddressError("injected mid-mark fault")
                return path

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(HeapPath, "from_tracer", classmethod(faulting))
                vm.gc()
        assert vm.collector.recovery.heap_degradations == 1
        tracers = [tracer for tracer, _tip, _path in reports]
        assert tracers[0] is faulted[0]
        assert all(tracer is not faulted[0] for tracer in tracers[1:])
        assert len(reports) == 3
        log = vm.engine.log
        assert sorted(v.site for v in log) == ["mid", "tail"]
        for violation in log:
            assert violation.path.type_names() == ["Node"] * (
                3 if violation.site == "mid" else 5
            )


# -- every drain the dispatcher can select ----------------------------------------


class _InlineStub:
    """An engine declaring ``INLINE_HEADER_CHECKS``: the drain calls its slow
    hooks only for header bits that show assertion work."""

    INLINE_HEADER_CHECKS = True

    def __init__(self):
        self.calls = []

    def _note(self, kind, obj, tracer, parent):
        parent_address = parent.address if parent is not None else None
        path = tracer.current_path_addresses(obj.address)
        self.calls.append((kind, obj.address, parent_address, path))

    def on_first_encounter_slow(self, obj, tracer, parent):
        self._note("first-slow", obj, tracer, parent)

    def on_repeat_encounter_slow(self, obj, tracer, parent):
        self._note("repeat-slow", obj, tracer, parent)

    # The root scan uses the full hooks.
    def on_first_encounter(self, obj, tracer, parent):
        self._note("first", obj, tracer, parent)

    def on_repeat_encounter(self, obj, tracer, parent):
        self._note("repeat", obj, tracer, parent)


class _HooksStub(_InlineStub):
    """An engine without ``INLINE_HEADER_CHECKS``: every encounter calls it."""

    INLINE_HEADER_CHECKS = False


DRAIN_CONFIGS = [
    (engine, track_paths, sink)
    for engine in (None, _InlineStub, _HooksStub)
    for track_paths in (False, True)
    for sink in (None, "address", "frozen")
]


def _drain_heap(n_objects, edges, array_refs, header_bits, roots):
    """A heap of ``G`` objects, one ``G[]`` and one ``int[]``; returns the
    VM, the object addresses (the arrays last) and the root entries."""
    vm = VirtualMachine(heap_bytes=1 << 20, assertions=False, telemetry=False)
    cls = _graph_class(vm)
    cls.instance_limit = 1 << 20
    allocate = vm.collector.allocate
    objects = [allocate(cls) for _ in range(n_objects)]
    refs = allocate(vm.array_class(cls), len(array_refs))
    ints = allocate(vm.array_class(FieldKind.INT), 2)
    objects += [refs, ints]
    for src, field, dst in edges:
        objects[src].slots[field] = objects[dst].address
    refs.slots[:] = [objects[i].address if i is not None else NULL for i in array_refs]
    objects[0].slots[0] = refs.address
    objects[1 % n_objects].slots[1] = ints.address
    for i, bits in header_bits:
        objects[i].status |= bits
    addresses = [obj.address for obj in objects]
    return vm, addresses, [(f"root{i}", addresses[i]) for i in roots]


def _run_drain(vm, roots, engine_cls, track_paths, sink_kind):
    """One trace under one configuration; returns everything it observed."""
    for obj in vm.heap:
        obj.status &= ~hdr.MARK_BIT
        obj.cls.instance_count = 0
    engine = engine_cls() if engine_cls is not None else None
    sink = None
    if sink_kind is not None:
        sink = SnapshotSink("unused", heap=vm.heap, moving=sink_kind == "frozen")
    stats = GcStats()
    Tracer(vm.heap, stats, engine, track_paths=track_paths, snapshot=sink).trace(roots)
    rows = None
    if sink is not None:
        rows = [
            (row[0], row[2], row[3]) if sink.moving else row for row in sink.rows
        ]
    return {
        "marked": sorted(o.address for o in vm.heap if o.status & hdr.MARK_BIT),
        "stats": stats,
        "calls": engine.calls if engine is not None else None,
        "rows": rows,
    }


@given(
    n_objects=st.integers(2, N_OBJECTS),
    edges=edge_strategy,
    array_refs=st.lists(st.one_of(st.none(), st.integers(0, N_OBJECTS - 1)), max_size=3),
    header_bits=st.lists(
        st.tuples(
            st.integers(0, N_OBJECTS - 1),
            st.sampled_from([hdr.DEAD_BIT, hdr.OWNEE_BIT, hdr.UNSHARED_BIT]),
        ),
        max_size=4,
    ),
    roots=st.lists(st.integers(0, N_OBJECTS - 1), min_size=1, max_size=3),
)
# A diamond with a flagged tip on each side: a first encounter of a dead
# object and a repeat encounter of an unshared one, both in the drain.
@example(
    n_objects=4,
    edges=[(0, 0, 1), (0, 1, 2), (1, 1, 3), (2, 0, 3)],
    array_refs=[],
    header_bits=[(2, hdr.DEAD_BIT), (3, hdr.UNSHARED_BIT)],
    roots=[0],
)
@settings(
    max_examples=40,
    deadline=None,
    report_multiple_bugs=False,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_every_drain_does_the_same_work(n_objects, edges, array_refs, header_bits, roots):
    """Random heaps through all 18 (engine none / inline / hooks) x (paths
    on / off) x (no sink / address sink / frozen sink) drains: the same
    marked set and work counters as the plain drain and a reference walk,
    tags exactly when tracking, the same engine calls (paths included) as
    the sink-free path-tracking drain of that engine, slow hooks exactly
    where header bits show assertion work, and the same snapshot rows per
    sink kind."""
    edges = [(s % n_objects, f, d % n_objects) for s, f, d in edges]
    array_refs = [i % n_objects if i is not None else None for i in array_refs]
    header_bits = [(i % n_objects, bits) for i, bits in header_bits]
    roots = [i % n_objects for i in roots]
    vm, addresses, root_entries = _drain_heap(
        n_objects, edges, array_refs, header_bits, roots
    )
    runs = {
        config: _run_drain(vm, root_entries, *config) for config in DRAIN_CONFIGS
    }
    plain = runs[(None, False, None)]
    # The reference reachability, done the obvious way.
    by_address = {obj.address: obj for obj in vm.heap}
    seen, todo = set(), [addresses[i] for i in roots]
    while todo:
        address = todo.pop()
        if address in seen:
            continue
        seen.add(address)
        obj = by_address[address]
        todo.extend(c for c in obj.reference_slots() if c != NULL)
    assert plain["marked"] == sorted(seen)
    objects = plain["stats"].objects_traced
    assert objects == len(seen)
    root_addresses = {addresses[i] for i in roots}
    counted = sum(
        1
        for address in seen - root_addresses
        if by_address[address].cls.instance_limit is not None
    )

    for (engine, track_paths, sink), run in runs.items():
        stats = run["stats"]
        label = (getattr(engine, "__name__", None), track_paths, sink)
        assert run["marked"] == plain["marked"], label
        assert stats.objects_traced == objects, label
        assert stats.edges_traced == plain["stats"].edges_traced, label
        assert stats.path_entries_tagged == (objects if track_paths else 0), label
        inline = engine is _InlineStub
        # One header check per traced edge, one instance count per object
        # marked by the drain (the root scan goes through the full hooks).
        assert stats.header_bit_checks == (stats.edges_traced if inline else 0), label
        assert stats.instance_count_increments == (counted if inline else 0), label
        if engine is not None:
            fused = runs[(engine, True, None)]["calls"]
            if track_paths:
                assert run["calls"] == fused, label
            else:
                assert [c[:3] for c in run["calls"]] == [c[:3] for c in fused], label
                assert all(c[3] == [c[1]] for c in run["calls"]), label
        if sink is not None:
            reference = runs[(None, True, sink)]["rows"]
            assert run["rows"] == reference, label
            assert sorted(row[0] if sink == "frozen" else row for row in run["rows"]) == (
                plain["marked"]
            ), label

    # The slow hooks ran for exactly the header bits that show assertion work.
    slow = runs[(_InlineStub, True, None)]["calls"]
    first_slow = {c[1] for c in slow if c[0] == "first-slow"}
    flagged = {
        addresses[i] for i, bits in header_bits if bits in (hdr.DEAD_BIT, hdr.OWNEE_BIT)
    }
    assert first_slow == (flagged & seen) - root_addresses
    # Every traced edge into an unshared object is a repeat encounter, except
    # the one that first marks it (none for a root).
    unshared = {addresses[i] for i, bits in header_bits if bits == hdr.UNSHARED_BIT}
    expected_repeats = Counter()
    for address in seen:
        for child in by_address[address].reference_slots():
            if child in unshared:
                expected_repeats[child] += 1
    for address in unshared & seen - root_addresses:
        expected_repeats[address] -= 1
    repeat_slow = Counter(c[1] for c in slow if c[0] == "repeat-slow")
    assert repeat_slow == +expected_repeats
    # A hooks engine hears of every encounter: each reachable object once
    # as a first, every other root-scan or traced reference as a repeat.
    # Its drain calls that carry assertion work are the inline slow calls.
    hooks = runs[(_HooksStub, True, None)]["calls"]
    assert Counter(c[1] for c in hooks if c[0] == "first") == Counter(seen)
    repeats = sum(1 for c in hooks if c[0] == "repeat")
    assert repeats == len(roots) + plain["stats"].edges_traced - objects
    assert [c for c in slow if c[0].endswith("-slow")] == [
        (c[0] + "-slow", *c[1:])
        for c in hooks
        if c[2] is not None and c[1] in (flagged if c[0] == "first" else unshared)
    ]
    # A frozen row keeps the object's reference children as of mark time,
    # even once the mutator overwrites them (array rows copy the slots).
    children_then = {a: list(by_address[a].reference_slots()) for a in seen}
    for obj in vm.heap:
        if obj.cls.is_array:
            obj.slots[:] = [NULL] * len(obj.slots)
    for address, _seq, children in runs[(None, True, "frozen")]["rows"]:
        assert (children or []) == children_then[address]
