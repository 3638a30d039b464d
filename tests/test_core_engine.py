"""Assertion-engine internals: hooks, misuse detection, metadata hygiene."""

import pytest

from repro.core.reporting import AssertionKind
from repro.gc.verify import verify_heap
from repro.heap import header as hdr
from repro.heap.object_model import FieldKind
from repro.runtime.vm import VirtualMachine
from tests.conftest import build_chain, make_node_class


class TestOwnershipMisuse:
    """§2.5.2: 'If we encounter an ownee object ... check to make sure it
    belongs to the current owner.  If not, issue a warning (improper use of
    the assertion).'"""

    def _overlapping_vm(self):
        vm = VirtualMachine(heap_bytes=4 << 20)
        cont_cls = vm.define_class("Cont", [("a", FieldKind.REF), ("b", FieldKind.REF)])
        elem_cls = vm.define_class("Elem", [("id", FieldKind.INT)])
        with vm.scope():
            owner1 = vm.new(cont_cls)
            owner2 = vm.new(cont_cls)
            vm.statics.set_ref("o1", owner1.address)
            vm.statics.set_ref("o2", owner2.address)
            shared = vm.new(elem_cls, id=7)
            # shared is registered as owner2's ownee, but owner1's region
            # also reaches it: the regions overlap — improper use.
            owner1["a"] = shared
            owner2["a"] = shared
            own1_elem = vm.new(elem_cls, id=1)
            owner1["b"] = own1_elem
            vm.assertions.assert_ownedby(owner1, own1_elem)
            vm.assertions.assert_ownedby(owner2, shared)
        return vm, shared

    def test_overlap_reported_as_misuse(self):
        vm, shared = self._overlapping_vm()
        vm.gc()
        misuse = vm.engine.log.of_kind(AssertionKind.OWNERSHIP_MISUSE)
        assert len(misuse) == 1
        assert misuse[0].address == shared.obj.address
        assert "overlap" in misuse[0].message

    def test_misuse_deduplicated_within_one_gc(self):
        vm, shared = self._overlapping_vm()
        vm.gc()
        assert len(vm.engine.log.of_kind(AssertionKind.OWNERSHIP_MISUSE)) == 1

    def test_shared_ownee_still_validated_by_its_owner(self):
        vm, shared = self._overlapping_vm()
        vm.gc()
        # No unowned-ownee violation: owner2's own scan owns it (when owner2
        # scans first) or it is flagged as misuse only.
        unowned = [
            v
            for v in vm.engine.log.of_kind(AssertionKind.OWNED_BY)
            if v.address == shared.obj.address
        ]
        assert unowned == []


    @pytest.mark.parametrize("collector", ["marksweep", "semispace", "generational"])
    def test_misused_ownee_reached_only_through_a_region_survives(self, collector):
        """``a`` owns ``b`` and is itself ``c``'s ownee; the only root
        reaches ``b``, and ``a`` only through ``b``.  Phase 1 marks ``b``
        from ``a``'s scan, so the root scan never revisits ``b``'s children:
        ``a`` must be traced despite the misuse, or it is freed while ``b``
        still points at it."""
        vm = VirtualMachine(heap_bytes=1 << 20, collector=collector)
        cls = vm.define_class("N", [("next", FieldKind.REF)])
        with vm.scope():
            a, b, c = vm.new(cls), vm.new(cls), vm.new(cls)
            a["next"] = b
            b["next"] = a
            vm.statics.set_ref("b", b.address)
            vm.assertions.assert_ownedby(a, b)
            vm.assertions.assert_ownedby(c, a)
        vm.gc()
        vm.gc()
        assert verify_heap(vm) == []
        b_obj = vm.heap.get(vm.statics.get_ref("b"))
        a_obj = vm.heap.get(b_obj.slots[0])
        assert a_obj.slots[0] == b_obj.address
        misuse = vm.engine.log.of_kind(AssertionKind.OWNERSHIP_MISUSE)
        assert misuse and misuse[0].address is not None


class TestEngineLifecycle:
    def test_instance_counts_reset_between_gcs(self, vm, node_class):
        build_chain(vm, node_class, 3)
        vm.assertions.assert_instances(node_class, 99)
        vm.gc()
        first = node_class.instance_count
        vm.gc()
        assert node_class.instance_count == first

    def test_violations_dispatched_only_at_gc_end(self, vm, node_class):
        nodes = build_chain(vm, node_class, 1)
        vm.assertions.assert_dead(nodes[0])
        assert len(vm.engine.log) == 0
        vm.gc()
        assert len(vm.engine.log) == 1

    def test_gc_number_recorded_on_violations(self, vm, node_class):
        nodes = build_chain(vm, node_class, 1)
        vm.gc()  # collection #1
        vm.assertions.assert_dead(nodes[0])
        vm.gc()  # collection #2 detects
        assert vm.engine.log.violations[0].gc_number == 2

    def test_address_reuse_does_not_resurrect_assertions(self, vm, node_class):
        """A freed asserted object's address may be recycled; the new
        occupant must not inherit the assertion."""
        with vm.scope():
            doomed = vm.new(node_class)
            vm.assertions.assert_dead(doomed)
            vm.assertions.assert_unshared(doomed)
        vm.gc()  # doomed dies; assertion satisfied, metadata purged
        with vm.scope():
            fresh = vm.new(node_class)
            # Free-list recycling gives back the same cell.
            assert fresh.obj.address == doomed.obj.address
            vm.statics.set_ref("fresh", fresh.address)
        vm.gc()
        assert len(vm.engine.log) == 0
        assert not fresh.obj.test(hdr.DEAD_BIT)
        assert not fresh.obj.test(hdr.UNSHARED_BIT)

    def test_registry_snapshot_reflects_state(self, vm, node_class):
        nodes = build_chain(vm, node_class, 3)
        vm.assertions.assert_dead(nodes[0])
        vm.assertions.assert_ownedby(nodes[1], nodes[2])
        snap = vm.engine.registry.snapshot()
        assert snap["dead_pending"] == 1
        assert snap["owners"] == 1
        assert snap["ownees"] == 1
        assert snap["calls"]["assert-dead"] == 1


class TestOwnershipAcrossCollections:
    def test_pairs_survive_many_gcs(self, vm, node_class):
        nodes = build_chain(vm, node_class, 4)
        vm.assertions.assert_ownedby(nodes[0], nodes[3])
        for _ in range(5):
            vm.gc()
        assert len(vm.engine.log) == 0
        assert vm.assertions.live_ownees() == 1

    def test_violation_reported_every_gc_while_leaked(self, vm, node_class):
        nodes = build_chain(vm, node_class, 3)
        vm.assertions.assert_ownedby(nodes[0], nodes[2])
        vm.statics.set_ref("cache", nodes[2].address)
        nodes[1]["next"] = None  # cut the owner path
        vm.gc()
        vm.gc()
        assert len(vm.engine.log.of_kind(AssertionKind.OWNED_BY)) == 2

    def test_owner_chain_three_levels(self, vm):
        """Owner A owns b; separately b's payload is just data (no nested
        owners on the path), per the §2.5.2 disjointness requirement."""
        cls = vm.define_class("H", [("child", FieldKind.REF), ("data", FieldKind.REF)])
        with vm.scope():
            a = vm.new(cls)
            b = vm.new(cls)
            payload = vm.new(cls)
            a["child"] = b
            b["data"] = payload
            vm.statics.set_ref("a", a.address)
            vm.assertions.assert_ownedby(a, b)
        vm.gc()
        assert len(vm.engine.log) == 0
        # payload was marked through the ownership phase and survived.
        assert payload.is_live
