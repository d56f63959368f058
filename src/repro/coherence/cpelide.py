"""CPElide protocol glue: Baseline's data path + table-driven sync.

CPElide does not modify the underlying coherence protocol (Sec. III-A): it
keeps Baseline's forwarding and write policies and only changes *when and
where* the implicit acquires and releases happen, as decided by the
elision engine over the Chiplet Coherence Table housed in the global CP.

That inheritance covers the demand path wholesale: the per-line
``_route`` and the bulk ``_route_segment`` hooks under the shared
``access``/``access_run`` skeleton come straight from
:class:`~repro.coherence.viper.BaselineProtocol`, and the bulk sync-op
execution underneath ``on_kernel_launch``'s acquires and releases from
the device, so CPElide runs at full run-trace speed with no code of its
own. ``cpelide-ts`` (:mod:`repro.coherence.timestamp`) keeps the same
routing: it calls Baseline's ``_route`` inside a lease check and takes
its segments through the lease base's ``_route_segment``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.coherence.viper import BaselineProtocol
from repro.core.elision import ElisionEngine, ElisionOutcome
from repro.core.states import ChipletState
from repro.core.table import ChipletCoherenceTable
from repro.cp.local_cp import SyncOp, SyncOpKind
from repro.cp.packets import KernelPacket
from repro.cp.wg_scheduler import Placement


class CPElideProtocol(BaselineProtocol):
    """The proposed approach (Sec. III).

    Args:
        range_ops: Enable the Sec. VI fine-grained hardware range-based
            flush extension — sync ops carry byte ranges and only walk the
            affected lines instead of the whole L2 (requires the
            virtual-to-physical translation support the paper sketches).
    """

    name = "cpelide"

    def __init__(self, config, device, range_ops: bool = False) -> None:
        super().__init__(config, device)
        self.table = ChipletCoherenceTable(
            num_chiplets=config.num_chiplets,
            structs_per_kernel=config.table_structs_per_kernel,
            kernel_window=config.table_kernel_window,
        )
        # The simulator installs its tracer on the device before building
        # the protocol, so the table can share it from construction.
        self.table.tracer = device.tracer
        self.engine = ElisionEngine(self.table)
        self.range_ops = range_ops
        if range_ops:
            self.name = "cpelide-range"
        self.last_outcome: Optional[ElisionOutcome] = None
        self._launches = 0

    # ---- kernel boundaries -----------------------------------------------

    def on_kernel_launch(self, packet: KernelPacket,
                         placement: Placement) -> List[SyncOp]:
        """Run the once-per-kernel table check; issue only necessary ops."""
        outcome = self.engine.process_launch(packet, placement)
        self.last_outcome = outcome
        self._launches += 1
        if not self.range_ops:
            return outcome.ops
        return [self._attach_ranges(op, packet, placement)
                for op in outcome.ops]

    def on_kernel_complete(self, packet: KernelPacket,
                           placement: Placement) -> List[SyncOp]:
        """Releases are lazy (issued at a later launch), so: nothing."""
        return []

    # ---- overheads ----------------------------------------------------------

    def launch_overhead_cycles(self, packet: KernelPacket) -> float:
        """CPElide's table operations take ~6 us of CP time (Sec. IV-B).

        GPUs enqueue kernels before launch, so this latency is hidden
        behind the previous kernel's execution for all but the first
        kernel (nearly every kernel runs longer than 6 us).
        """
        if self._launches == 1:
            return self.config.cpelide_op_cycles
        return 0.0

    # ---- memoization support ---------------------------------------------

    def memo_key_flags(self) -> tuple:
        """Whether the *next* launch is the first one: it alone pays the
        table-operation overhead (``launch_overhead_cycles`` fires when
        ``_launches == 1`` post-increment), so two otherwise identical
        kernels at launch index 0 and N must not share a memo entry."""
        return (self._launches == 0,)

    def memo_digest(self) -> bytes:
        """The Chiplet Coherence Table is CPElide's behavioral state."""
        return self.table.memo_digest()

    def memo_snapshot(self):
        return self.table.memo_snapshot()

    def memo_restore(self, snapshot) -> None:
        self.table.memo_restore(snapshot)

    def memo_counters_begin(self):
        """Arm the exact per-kernel peak-occupancy measurement.

        ``peak_entries`` only ever advances as ``max(peak, len(entries))``
        inside ``get_or_create``, so zeroing it for the kernel and folding
        the observed kernel-local peak back with ``max`` afterwards is
        exact — and the kernel-local peak is replayable on a hit.
        """
        token = (self.table.peak_entries, self.table.overflow_evictions)
        self.table.peak_entries = 0
        return token

    def memo_counters_end(self, token):
        peak_before, overflow_before = token
        kernel_peak = self.table.peak_entries
        self.table.peak_entries = max(peak_before, kernel_peak)
        return (kernel_peak,
                self.table.overflow_evictions - overflow_before)

    def memo_counters_apply(self, delta) -> None:
        kernel_peak, overflow_delta = delta
        self.table.peak_entries = max(self.table.peak_entries, kernel_peak)
        self.table.overflow_evictions += overflow_delta
        self._launches += 1

    # ---- range extension -------------------------------------------------------

    def _attach_ranges(self, op: SyncOp, packet: KernelPacket,
                       placement: Placement) -> SyncOp:
        """Restrict ``op`` to the byte ranges that actually need it.

        The elision engine records each op's target ranges at decision
        time (the dirty holder's tracked range for a release, the stale
        tracked range for an acquire), so unrelated resident data — e.g.
        a graph's read-only adjacency lists while the color array is
        invalidated — survives the operation. Ops without recorded ranges
        (the table-overflow fallback) stay whole-cache, preserving
        correctness.
        """
        outcome = self.last_outcome
        if outcome is None:
            return op
        if op.kind is SyncOpKind.RELEASE:
            ranges = outcome.release_ranges.get(op.chiplet)
        else:
            ranges = outcome.acquire_ranges.get(op.chiplet)
        if not ranges:
            return op
        return SyncOp(op.kind, op.chiplet, op.reason, ranges=tuple(ranges))

    # ---- introspection -----------------------------------------------------------

    def host_roundtrip_cycles(self) -> float:
        """GPU cycles of one CP<->driver round trip, at simulation scale."""
        return (self.config.host_roundtrip_latency_s
                * self.config.gpu_clock_hz
                * self.config.effective_overhead_scale)

    def table_state(self, buffer_base: int,
                    chiplet: int) -> ChipletState:
        """Current table state of the row whose extent covers
        ``buffer_base`` for ``chiplet`` (Not Present if untracked)."""
        for entry in self.table.entries:
            if entry.base <= buffer_base < entry.end:
                return entry.states[chiplet]
        return ChipletState.NOT_PRESENT


class DriverManagedCPElideProtocol(CPElideProtocol):
    """The Sec. VI what-if: implicit synchronization managed at the driver.

    The GPU driver also knows which data structures each kernel accesses,
    so it *could* run the elision algorithm — but it does not know which
    chiplet(s) a kernel's WGs will be scheduled on, so the CP would have
    to send the scheduling decision to the host and wait for the driver's
    verdict at every kernel launch. Prior work shows such host round
    trips add significant latency [28, 79, 140]; this variant makes the
    same elision decisions as CPElide but charges one host round trip per
    kernel launch on the critical path.
    """

    name = "cpelide-driver"

    def launch_overhead_cycles(self, packet: KernelPacket) -> float:
        """Every launch waits on a CP -> driver -> CP round trip (the
        scheduling information cannot be batched ahead of time), on top
        of the first-kernel table-operation cost."""
        return (super().launch_overhead_cycles(packet)
                + self.host_roundtrip_cycles())
