"""AssertionRegistry bookkeeping and Violation/HeapPath rendering."""

import hashlib

import pytest

from repro.core.registry import AssertionRegistry, OwnerRecord
from repro.core.reporting import AssertionKind, HeapPath, Violation, ViolationLog
from repro.errors import AssertionUsageError
from repro.heap.object_model import ClassDescriptor, FieldKind, HeapObject
from repro.runtime.vm import VirtualMachine
from repro.snapshot import SnapshotPolicy
from repro.workloads.swapleak import SwapLeakConfig, run_swapleak


class TestOwnerRecord:
    def test_sorted_insertion(self):
        record = OwnerRecord(0x1000, "t")
        for address in (0x5000, 0x2000, 0x9000, 0x3000):
            record.add(address)
        assert record.ownees == sorted(record.ownees)

    def test_duplicate_add_ignored(self):
        record = OwnerRecord(0x1000, "t")
        record.add(0x2000)
        record.add(0x2000)
        assert len(record) == 1

    def test_binary_search_finds_all(self):
        record = OwnerRecord(0x1000, "t")
        addresses = [0x2000 + 8 * i for i in range(33)]
        for a in addresses:
            record.add(a)
        for a in addresses:
            found, probes = record.contains(a)
            assert found
            assert 1 <= probes <= 7  # log2(33) ~ 6

    def test_binary_search_miss(self):
        record = OwnerRecord(0x1000, "t")
        record.add(0x2000)
        found, probes = record.contains(0x3000)
        assert not found
        assert probes >= 1

    def test_remove(self):
        record = OwnerRecord(0x1000, "t")
        record.add(0x2000)
        assert record.remove(0x2000)
        assert not record.remove(0x2000)
        assert len(record) == 0


class TestRegistry:
    def test_dead_site_serials_increase(self):
        registry = AssertionRegistry()
        a = registry.register_dead(0x1000, "a", 0)
        b = registry.register_dead(0x2000, "b", 0)
        assert b.serial > a.serial

    def test_purge_freed_satisfies_dead(self):
        registry = AssertionRegistry()
        registry.register_dead(0x1000, "a", 0)
        registry.register_dead(0x2000, "b", 0)
        info = registry.purge_freed({0x1000})
        assert info["dead_satisfied"] == [0x1000]
        assert registry.dead_satisfied == 1
        assert 0x2000 in registry.dead_sites

    def test_purge_freed_removes_ownees_and_flags_dead_owners(self):
        registry = AssertionRegistry()
        registry.register_owned_by(0x1000, 0x2000, "t")
        registry.register_owned_by(0x1000, 0x3000, "t")
        registry.register_owned_by(0x4000, 0x5000, "t")
        info = registry.purge_freed({0x2000, 0x4000})
        assert registry.owner_of(0x2000) is None
        assert registry.owner_of(0x3000) == 0x1000
        assert info["dead_owners"] == [0x4000]
        assert registry.ownees_reclaimed == 1

    def test_drop_owner_returns_survivors(self):
        registry = AssertionRegistry()
        registry.register_owned_by(0x1000, 0x2000, "t")
        registry.register_owned_by(0x1000, 0x3000, "t")
        survivors = registry.drop_owner(0x1000)
        assert sorted(survivors) == [0x2000, 0x3000]
        assert registry.owner_of(0x2000) is None
        assert registry.drop_owner(0x1000) == []

    def test_forwarding_rewrites_everything(self):
        registry = AssertionRegistry()
        registry.register_dead(0x1000, "a", 0)
        registry.register_unshared(0x2000, "u")
        registry.register_owned_by(0x3000, 0x4000, "o")
        fwd = {0x1000: 0x11000, 0x2000: 0x12000, 0x3000: 0x13000, 0x4000: 0x14000}
        registry.apply_forwarding(fwd)
        assert 0x11000 in registry.dead_sites
        assert 0x12000 in registry.unshared_sites
        assert registry.owner_of(0x14000) == 0x13000
        record = registry.owners[0x13000]
        assert record.ownees == [0x14000]
        assert record.ownees == sorted(record.ownees)

    def test_forwarding_empty_is_noop(self):
        registry = AssertionRegistry()
        registry.register_dead(0x1000, "a", 0)
        registry.apply_forwarding({})
        assert 0x1000 in registry.dead_sites

    def test_snapshot_shape(self):
        registry = AssertionRegistry()
        registry.register_dead(0x1000, "a", 0)
        snap = registry.snapshot()
        assert snap["dead_pending"] == 1
        assert "calls" in snap


def _obj(name="C", address=0x1000):
    cls = ClassDescriptor(0, name, [("x", FieldKind.INT)])
    return HeapObject(address, cls)


class TestReporting:
    def test_path_render_arrow_separated(self):
        path = HeapPath("static 'root'", [_obj("A", 0x1000), _obj("B", 0x1008)])
        text = path.render()
        assert text.splitlines()[0] == "static 'root' ->"
        assert "A ->" in text
        assert text.endswith("B")

    def test_path_render_with_addresses(self):
        path = HeapPath(None, [_obj("A", 0x1000)])
        assert "0x1000" in path.render(show_addresses=True)

    def test_empty_path_renders_placeholder(self):
        path = HeapPath(None, [])
        assert path.render() == "(no path available)"

    def test_violation_render_includes_all_sections(self):
        violation = Violation(
            AssertionKind.DEAD,
            "an object that was asserted dead is reachable.",
            obj=_obj("spec.jbb.Order"),
            site="Delivery.process",
            path=HeapPath("static 'company'", [_obj("spec.jbb.Company")]),
            gc_number=3,
        )
        text = violation.render()
        assert "Warning:" in text
        assert "Type: spec.jbb.Order" in text
        assert "Asserted at: Delivery.process" in text
        assert "Path to object:" in text

    def test_log_filters_by_kind(self):
        log = ViolationLog()
        log.record(Violation(AssertionKind.DEAD, "d"))
        log.record(Violation(AssertionKind.UNSHARED, "u"))
        assert len(log.of_kind(AssertionKind.DEAD)) == 1
        assert len(log) == 2

    def test_log_clear(self):
        log = ViolationLog()
        log.record(Violation(AssertionKind.DEAD, "d"))
        log.clear()
        assert len(log) == 0
        assert log.lines == []


class TestRenderOnRead:
    """``ViolationLog.lines`` renders on first read, not inside the pause."""

    def test_lines_match_render_after_record(self):
        log = ViolationLog()
        log.record(Violation(AssertionKind.DEAD, "d", obj=_obj("A")))
        log.record(Violation(AssertionKind.UNSHARED, "u", obj=_obj("B", 0x1008)))
        assert log.lines == [v.render() for v in log]

    def test_rendering_waits_for_the_first_read(self):
        log = ViolationLog()
        violation = Violation(AssertionKind.DEAD, "d", obj=_obj("A"))
        log.record(violation)
        violation.details["retained_bytes"] = 96
        assert "Retained size: 96 bytes" in log.lines[0]

    def test_each_violation_rendered_once(self):
        log = ViolationLog()
        log.record(Violation(AssertionKind.DEAD, "first"))
        first = log.lines[0]
        log.record(Violation(AssertionKind.DEAD, "second"))
        assert log.lines[0] is first
        assert log.lines[1] == log.violations[1].render()

    def test_in_place_rerender_sticks(self):
        log = ViolationLog()
        log.record(Violation(AssertionKind.DEAD, "d"))
        log.lines[0] = "annotated"
        log.record(Violation(AssertionKind.DEAD, "e"))
        assert log.lines == ["annotated", log.violations[1].render()]

    def test_clear_resets_rendered_lines(self):
        log = ViolationLog()
        log.record(Violation(AssertionKind.DEAD, "old"))
        log.record(Violation(AssertionKind.DEAD, "older"))
        assert len(log.lines) == 2
        log.clear()
        assert log.lines == []
        fresh = Violation(AssertionKind.UNSHARED, "new")
        log.record(fresh)
        assert log.lines == [fresh.render()]

    def test_annotated_snapshot_details_reach_lines(self, tmp_path):
        vm = VirtualMachine(heap_bytes=4 << 20)
        SnapshotPolicy(str(tmp_path), on_violation=True).attach(vm)
        run_swapleak(vm, SwapLeakConfig(swaps=8))
        log = vm.engine.log
        assert len(log) > 0
        for violation, line in zip(log, log.lines):
            assert line == violation.render()
            assert "Retained size:" in line
            assert "Dominator chain:" in line

    def test_swapleak_violation_lines_are_byte_identical(self):
        """The SwapLeak report text is pinned: 224 violations whose digest
        was recorded from the eager-rendering implementation."""
        vm = VirtualMachine(heap_bytes=4 << 20)
        run_swapleak(vm, SwapLeakConfig(swaps=64, gc_every_swaps=16))
        lines = vm.violation_lines()
        blob = "\n\x00".join(lines).encode()
        assert len(lines) == 224
        assert hashlib.sha256(blob).hexdigest() == (
            "6b04e79e0ade326ece1fc7f903430c2250d66868c1a0f4d4fa2afd635efe05d0"
        )
