"""Per-chiplet local command processors.

Modern chiplet GPUs already have per-chiplet CPs handling local scheduling
(Sec. II-B). The paper's redesign (Fig. 4b) keeps local scheduling there
and additionally has the local CPs (a) execute the acquire/release
requests the global CP sends across the crossbar and (b) acknowledge their
completion so the global CP's ACK counter can release the next kernel's
WGs (Sec. III-C, Fig. 7).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.gpu.device import Device


class SyncOpKind(enum.Enum):
    """Synchronization operations a local CP can execute on its L2."""

    #: Implicit acquire: invalidate the chiplet's L2 (whole cache; the
    #: global CP cannot issue physical range operations, Sec. VI).
    ACQUIRE = "acquire"
    #: Implicit release: write back all dirty L2 data, retaining clean
    #: copies (Sec. III-B, Lazy Acquire/Release).
    RELEASE = "release"


@dataclass(frozen=True)
class SyncOp:
    """One acquire or release targeted at one chiplet.

    Attributes:
        kind: Acquire (invalidate) or release (flush).
        chiplet: Target chiplet id.
        reason: Human-readable provenance for diagnostics (e.g. which
            buffer transition generated the op).
        ranges: Optional byte ranges to restrict the operation to. Plain
            CPElide always operates on the whole cache (Sec. VI: software
            hints are virtual but L2s are physical); the fine-grained
            hardware range-based flush extension populates this field.
    """

    kind: SyncOpKind
    chiplet: int
    reason: str = ""
    ranges: "Optional[Tuple[Tuple[int, int], ...]]" = None


@dataclass(frozen=True)
class SyncAck:
    """Acknowledgment a local CP returns after executing a sync op.

    Attributes:
        op: The executed operation.
        lines_flushed: Dirty lines written back (releases).
        lines_invalidated: Lines dropped (acquires).
    """

    op: SyncOp
    lines_flushed: int = 0
    lines_invalidated: int = 0


class LocalCP:
    """The local CP of one chiplet.

    Executes sync ops against the chiplet's L2 through the device (which
    owns the caches and accounts traffic), and models the local dispatch
    path: the local CP will not launch WGs from the next kernel until the
    global CP's "launch enable" message arrives (Sec. III-C).
    """

    def __init__(self, chiplet_id: int, device: "Device") -> None:
        self.chiplet_id = chiplet_id
        self.device = device

    def execute(self, op: SyncOp, boundary: str = "launch") -> SyncAck:
        """Execute ``op`` on this chiplet's L2 and return the ACK.

        ``boundary`` labels the kernel boundary the op belongs to
        (``launch``, ``completion``, or ``run-end``) for the trace; it
        has no effect on the operation itself.
        """
        if op.chiplet != self.chiplet_id:
            raise ValueError(
                f"op for chiplet {op.chiplet} routed to local CP {self.chiplet_id}")
        if op.kind is SyncOpKind.RELEASE:
            if op.ranges is not None:
                flushed = self.device.flush_l2_ranges(self.chiplet_id, op.ranges)
            else:
                flushed = self.device.flush_l2(self.chiplet_id)
            ack = SyncAck(op=op, lines_flushed=flushed)
        elif op.ranges is not None:
            invalidated = self.device.invalidate_l2_ranges(self.chiplet_id,
                                                           op.ranges)
            ack = SyncAck(op=op, lines_invalidated=invalidated)
        else:
            invalidated = self.device.invalidate_l2(self.chiplet_id)
            ack = SyncAck(op=op, lines_invalidated=invalidated)
        tracer = self.device.tracer
        if tracer.enabled:
            tracer.sync_op(kind=op.kind.value, chiplet=op.chiplet,
                           reason=op.reason,
                           lines_flushed=ack.lines_flushed,
                           lines_invalidated=ack.lines_invalidated,
                           boundary=boundary)
        return ack
