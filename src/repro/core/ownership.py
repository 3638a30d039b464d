"""The ownership phase: checking ``assert-ownedby`` during collection.

§2.5.2 of the paper rejects the general algorithm ("each object being tagged
with all ownees reachable from it [...] prohibitive") in favor of changing
the *order* of tracing:

    "Instead of starting at the roots, we added a new ownership phase to the
    collector that starts tracing from each owner object."

The two-phase algorithm implemented here follows the paper's final design
exactly:

**Phase 1** (this module, run as the engine's ``pre_mark`` hook), for each
registered owner:

* Do **not** mark the owner itself — its liveness is established by the
  normal root scan; if it is unreachable it will be collected this GC.
* If an ownee of the *current* owner is reached: mark it, set its ``OWNED``
  bit, and *truncate* the scan there, queueing the ownee so its subtree is
  scanned after the owner's scan completes (this is how the paper tolerates
  back edges / overlapping data structures).
* If an ownee of a *different* owner is reached: issue an improper-use
  warning (the owner regions are required to be disjoint) and keep
  tracing it as part of the current region, without the ``OWNED`` bit.
  (Leaving it unmarked, as a literal reading suggests, frees it whenever
  its only referrers were marked in phase 1: the root scan prunes there.)
* If a different owner object is reached: mark it and stop — "we will scan
  this owner independently."

**Phase 2** is the normal root scan: the engine's ``on_first_encounter``
hook reports any ownee reached without its ``OWNED`` bit — it was not
reachable from its owner, i.e. it (or the paths to it) outlived the owner.

Everything marked in phase 1 stays marked for phase 2, so owner-reachable
subgraphs are never traced twice ("we are able to check the ownership
assertion without per-object memory overhead or processing any objects
twice") — and, exactly as the paper concedes, objects reachable only from a
*dead* owner survive this collection as floating garbage.

The module also provides the **naive** per-pair reachability check that the
paper rejects, used by the ``abl-own`` ablation benchmark to quantify how
much the two-phase design saves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.registry import OwnerRecord
from repro.heap import header as hdr
from repro.heap.layout import NULL

if TYPE_CHECKING:
    from repro.core.engine import AssertionEngine
    from repro.gc.base import Collector


def run_ownership_phase(engine: "AssertionEngine", collector: "Collector") -> None:
    """Phase 1: trace from every live owner, truncating at ownees."""
    heap = collector.heap
    registry = engine.registry
    misuse_reported: set[int] = set()
    for record in list(registry.owner_records()):
        owner = heap.maybe(record.owner_address)
        if owner is None or owner.is_freed:
            # Owner already reclaimed by an earlier (minor) collection; the
            # epilogue's owner-death processing handles its ownees.
            continue
        touched, self_reached = _scan_from_owner(
            engine, collector, record, owner, misuse_reported
        )
        if self_reached:
            # The owner is reachable from its own ownee region (a back
            # edge reached it), so this scan just marked the owner from
            # its own record.  If the root scan cannot justify the owner,
            # leaving that mark would make the region self-sustaining —
            # re-marked from its own registry entry every collection,
            # never reclaimed.  The engine re-judges these owners against
            # true root reachability in ``post_mark`` and demotes the
            # marks of the dead ones.  (Found by the small-scope model
            # checker: root-less {owner -> ownee -> owner} shapes leaked
            # permanently.)
            engine.note_self_sustained(record, touched)


def _scan_from_owner(
    engine: "AssertionEngine",
    collector: "Collector",
    record: OwnerRecord,
    owner,
    misuse_reported: set[int],
) -> tuple[list[int], bool]:
    """Scan one owner region; returns (addresses marked, owner-back-edge?)."""
    heap = collector.heap
    stats = collector.stats
    stack: list[int] = []
    ownee_queue: list[int] = []
    owner_address = record.owner_address
    touched: list[int] = []
    self_reached = False

    def reach(address: int) -> None:
        nonlocal self_reached
        if address == NULL:
            return
        obj = heap.get(address)
        stats.header_bit_checks += 1
        status = obj.status
        if status & hdr.MARK_BIT:
            # Second encounter during GC tracing: same unshared check the
            # root scan performs (§2.5.1).
            engine.on_repeat_encounter(obj, None, None)
            return
        if status & hdr.OWNEE_BIT:
            stats.ownee_lookups += 1
            found, probes = record.contains(address)
            stats.ownee_search_probes += probes
            if found:
                # Mark, set owned, truncate: scan its subtree after the
                # owner's scan completes (back-edge tolerance, §2.5.2).
                obj.status |= hdr.MARK_BIT | hdr.OWNED_BIT
                stats.objects_traced += 1
                touched.append(address)
                engine.phase1_visit(obj, record)
                ownee_queue.append(address)
                return
            # Ownee of a different owner: improper use of the assertion.
            if address not in misuse_reported:
                misuse_reported.add(address)
                engine.report_ownership_misuse(obj, record)
            # It is still traced below.  Leaving it unmarked would free a
            # live object whenever its only referrers were marked here: the
            # root scan prunes at phase-1 marks and never revisits their
            # children.
        if (status & hdr.OWNER_BIT) and address != owner_address:
            # Another owner: mark it and stop — it gets its own scan.
            obj.status |= hdr.MARK_BIT
            stats.objects_traced += 1
            touched.append(address)
            engine.phase1_visit(obj, record)
            return
        if address == owner_address:
            # Back edge to the current owner.  It must be marked here for
            # soundness (the root scan prunes at phase-1 marks, so this
            # scan may be the only path that reaches it), but the mark is
            # provisional — see run_ownership_phase.
            self_reached = True
        obj.status |= hdr.MARK_BIT
        stats.objects_traced += 1
        touched.append(address)
        engine.phase1_visit(obj, record)
        stack.append(address)

    # Seed with the owner's children; deliberately do NOT mark the owner.
    for child in owner.reference_slots():
        stats.edges_traced += 1
        reach(child)

    while True:
        while stack:
            obj = heap.get(stack.pop())
            for child in obj.reference_slots():
                stats.edges_traced += 1
                reach(child)
        if not ownee_queue:
            break
        # Process deferred ownees: scan the subtree below each one.
        obj = heap.get(ownee_queue.pop())
        for child in obj.reference_slots():
            stats.edges_traced += 1
            reach(child)
    return touched, self_reached


def run_naive_ownership_check(engine: "AssertionEngine", collector: "Collector") -> None:
    """The general algorithm the paper rejects, for the abl-own ablation.

    For every (owner, ownee) pair, run an independent reachability search
    from the owner.  No marking is shared between pairs, so the cost is
    O(pairs x reachable-subgraph) instead of one shared traversal.  Found
    ownees get their ``OWNED`` bit so phase-2 violation detection (and
    reporting) is identical to the two-phase design.
    """
    heap = collector.heap
    stats = collector.stats
    for record in list(engine.registry.owner_records()):
        owner = heap.maybe(record.owner_address)
        if owner is None or owner.is_freed:
            continue
        for ownee_address in record.ownees:
            visited: set[int] = set()
            stack = [c for c in owner.reference_slots() if c != NULL]
            found = False
            while stack:
                address = stack.pop()
                if address in visited:
                    continue
                visited.add(address)
                stats.naive_ownership_visits += 1
                if address == ownee_address:
                    found = True
                    break
                obj = heap.get(address)
                for child in obj.reference_slots():
                    if child != NULL and child not in visited:
                        stack.append(child)
            if found:
                heap.get(ownee_address).status |= hdr.OWNED_BIT
