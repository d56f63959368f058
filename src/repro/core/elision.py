"""The elision engine: lazy, per-chiplet acquire/release generation.

This is the launch-time algorithm of Sec. III-C:

* **Generating release requests** — a release (flush) for chiplet *j* is
  sent only when a soon-to-be-launched kernel will access, on some *other*
  chiplet, a range that is Dirty on *j*. If the next kernel accessing the
  data runs on the same chiplet(s) over the same range(s), the release is
  elided.
* **Generating acquire requests** — an acquire (invalidate) for chiplet
  *i* is sent only when the new kernel will access, on *i*, a range that
  is Stale on *i*.
* **Lazy ordering** — the release executes after the acquire associated
  with the new kernel but before the kernel issues any memory access, so
  SC-for-HRF results are preserved while the producer chiplet retains
  clean copies of the lines it just wrote.
* Each check happens once per kernel; after ops complete, fully
  Not-Present rows are removed from the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.core.coarsening import coarsen_regions
from repro.core.regions import (
    AccessRegion,
    intersect_ranges,
    merge_ranges,
    ranges_overlap,
    region_from_arg,
)
from repro.core.states import ChipletState
from repro.core.table import ChipletCoherenceTable, TableEntry
from repro.cp.local_cp import SyncOp, SyncOpKind
from repro.cp.packets import KernelPacket
from repro.cp.wg_scheduler import Placement


@dataclass
class ElisionOutcome:
    """What one launch-time table check decided.

    Attributes:
        ops: Sync ops to execute, already ordered (per-chiplet
            release-before-acquire where both target one chiplet, acquires
            otherwise preceding releases per the lazy-release rule).
        acquires_issued / releases_issued: Distinct chiplets targeted.
        acquires_elided / releases_elided: Chiplets the conservative
            baseline would have synchronized but CPElide did not.
        table_checks: Rows inspected (the once-per-kernel check count).
        release_ranges / acquire_ranges: Per-chiplet byte ranges the ops
            actually need to touch, captured at decision time (before the
            table's whole-cache side effects clear them) — consumed by
            the Sec. VI hardware range-based flush extension.
    """

    ops: List[SyncOp] = field(default_factory=list)
    acquires_issued: int = 0
    releases_issued: int = 0
    acquires_elided: int = 0
    releases_elided: int = 0
    table_checks: int = 0
    release_ranges: "Dict[int, List[tuple]]" = field(default_factory=dict)
    acquire_ranges: "Dict[int, List[tuple]]" = field(default_factory=dict)


class ElisionEngine:
    """Drives the Chiplet Coherence Table at every kernel launch."""

    def __init__(self, table: ChipletCoherenceTable) -> None:
        self.table = table

    def _trace_transition(self, entry: TableEntry, chiplet: int,
                          new: ChipletState) -> None:
        """Tracepoint for one chiplet-vector edge (no-op when disabled
        or when the state does not actually change)."""
        tracer = self.table.tracer
        if tracer.enabled and entry.states[chiplet] is not new:
            tracer.table_transition(name=entry.name, chiplet=chiplet,
                                    old=entry.states[chiplet].name,
                                    new=new.name)

    # ------------------------------------------------------------------

    def process_launch(self, packet: KernelPacket,
                       placement: Placement) -> ElisionOutcome:
        """Run the once-per-kernel table check and update (Sec. III-C)."""
        regions = [region_from_arg(arg, placement) for arg in packet.args]
        if len(regions) > self.table.structs_per_kernel:
            regions = coarsen_regions(regions, self.table.structs_per_kernel)

        outcome = ElisionOutcome()
        release_targets: Set[int] = set()
        acquire_targets: Set[int] = set()

        # Pass 1: inspect existing rows against the new kernel's accesses.
        for region in regions:
            for entry in self.table.find_overlapping(region.base, region.end):
                outcome.table_checks += 1
                self._collect_ops(entry, region, release_targets,
                                  acquire_targets, outcome)

        # Pass 2: whole-cache side effects of the issued ops on every row.
        # Release must precede acquire on a chiplet needing both, so its
        # dirty data is written back before the invalidate drops it.
        for chiplet in sorted(release_targets):
            self.table.on_chiplet_released(chiplet)
        for chiplet in sorted(acquire_targets):
            self.table.on_chiplet_acquired(chiplet)

        # Pass 3: install the new kernel's accesses (state transitions
        # occur at kernel launch, before the kernel runs — Sec. III-B).
        for region in regions:
            evict_ops = self._install(region)
            outcome.ops.extend(evict_ops)

        outcome.ops = self._order_ops(release_targets, acquire_targets) + outcome.ops
        num = self.table.num_chiplets
        outcome.releases_issued = len(release_targets)
        outcome.acquires_issued = len(acquire_targets)
        outcome.releases_elided = num - len(release_targets)
        outcome.acquires_elided = num - len(acquire_targets)
        return outcome

    # ------------------------------------------------------------------

    def _collect_ops(self, entry: TableEntry, region: AccessRegion,
                     release_targets: Set[int],
                     acquire_targets: Set[int],
                     outcome: ElisionOutcome) -> None:
        """Decide which chiplets need a flush or an invalidate for one
        (row, new-access) pair, recording the target ranges for the
        range-based-flush extension."""
        for holder, state in enumerate(entry.states):
            held_range = entry.ranges[holder]
            if state is ChipletState.DIRTY:
                # Another chiplet will access data Dirty here -> flush.
                for accessor, rng in region.chiplet_ranges.items():
                    if accessor != holder and ranges_overlap(held_range, rng):
                        release_targets.add(holder)
                        outcome.release_ranges.setdefault(holder, []).append(
                            held_range)
                        break
            elif state is ChipletState.STALE:
                # This chiplet will access a range Stale here -> invalidate.
                rng = region.chiplet_ranges.get(holder)
                if rng is not None and ranges_overlap(held_range, rng):
                    acquire_targets.add(holder)
                    outcome.acquire_ranges.setdefault(holder, []).append(
                        held_range)

    def _install(self, region: AccessRegion) -> List[SyncOp]:
        """Record the new kernel's access in the table.

        Returns conservative sync ops for any row evicted on overflow
        (the fallback behaves like the baseline for that row).
        """
        entry, evicted = self.table.get_or_create(region)
        ops: List[SyncOp] = []
        if evicted is not None:
            # Losing a row loses the staleness knowledge it carried:
            # conservatively flush its dirty holders and invalidate every
            # holder, exactly what the baseline would have done.
            for chiplet in evicted.chiplets_in(ChipletState.DIRTY):
                ops.append(SyncOp(SyncOpKind.RELEASE, chiplet,
                                  reason=f"table-overflow:{evicted.name}"))
            for chiplet in evicted.chiplets_in(ChipletState.VALID,
                                               ChipletState.DIRTY,
                                               ChipletState.STALE):
                ops.append(SyncOp(SyncOpKind.ACQUIRE, chiplet,
                                  reason=f"table-overflow:{evicted.name}"))
                self.table.on_chiplet_acquired(chiplet)

        # Mark resident copies on non-accessing chiplets Stale when the
        # new kernel writes an overlapping range (Valid->Stale and
        # post-flush Dirty->Stale transitions of Fig. 6).
        if region.mode.writes:
            for holder in range(self.table.num_chiplets):
                if holder in region.chiplet_ranges:
                    continue
                if entry.states[holder] in (ChipletState.VALID,
                                            ChipletState.STALE):
                    held = entry.ranges[holder]
                    if any(ranges_overlap(held, rng)
                           for rng in region.chiplet_ranges.values()):
                        self._trace_transition(entry, holder,
                                               ChipletState.STALE)
                        entry.states[holder] = ChipletState.STALE

        # First access to the structure: first-touch placement homes each
        # chiplet's accessed slice on that chiplet, fixing its cacheable
        # extent from here on (scheduling information the global CP has).
        if all(hr is None for hr in entry.home_ranges):
            for chiplet, rng in region.chiplet_ranges.items():
                entry.home_ranges[chiplet] = rng

        # The accessing chiplets' new states. Tracked residency is clipped
        # to each chiplet's cacheable (home) extent: remote accesses are
        # forwarded to the home node and leave nothing in the local L2.
        for chiplet, rng in region.chiplet_ranges.items():
            home = entry.home_ranges[chiplet]
            cached = intersect_ranges(rng, home) if home is not None else None
            if cached is None and home is not None:
                # Purely remote access: nothing newly resident here.
                continue
            effective = cached if cached is not None else rng
            if region.mode.writes:
                self._trace_transition(entry, chiplet, ChipletState.DIRTY)
                entry.states[chiplet] = ChipletState.DIRTY
            elif entry.states[chiplet] is not ChipletState.DIRTY:
                # A read keeps a Dirty copy Dirty (Stay-in-Dirty rule);
                # anything else becomes Valid.
                self._trace_transition(entry, chiplet, ChipletState.VALID)
                entry.states[chiplet] = ChipletState.VALID
            entry.ranges[chiplet] = merge_ranges(entry.ranges[chiplet],
                                                 effective)
        entry.mode = region.mode
        return ops

    @staticmethod
    def _order_ops(release_targets: Set[int],
                   acquire_targets: Set[int]) -> List[SyncOp]:
        """Order the main op set.

        A chiplet in both sets gets release-then-acquire (flush before the
        invalidate drops the data). Otherwise acquires are issued first
        and releases after — the lazy-release rule of Sec. III-B.
        """
        ops: List[SyncOp] = []
        both = release_targets & acquire_targets
        for chiplet in sorted(both):
            ops.append(SyncOp(SyncOpKind.RELEASE, chiplet, reason="flush-before-inv"))
            ops.append(SyncOp(SyncOpKind.ACQUIRE, chiplet, reason="stale-range"))
        for chiplet in sorted(acquire_targets - both):
            ops.append(SyncOp(SyncOpKind.ACQUIRE, chiplet, reason="stale-range"))
        for chiplet in sorted(release_targets - both):
            ops.append(SyncOp(SyncOpKind.RELEASE, chiplet, reason="remote-consumer"))
        return ops
