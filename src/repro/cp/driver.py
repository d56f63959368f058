"""GPU driver / runtime front end (Sec. II-B).

Once a user has written their GPU program, the underlying driver and
runtime create software queues and enqueue the program's kernels — along
with memory management and inter-kernel synchronization — as packets; the
CP's packet processor then maps each packet onto a hardware compute queue.
This module models that software side: per-stream software queues of
AQL-style packets, doorbell submission into the global CP, and the
dense dynamic-kernel numbering the rest of the system keys on.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, TYPE_CHECKING

from repro.cp.packets import KernelPacket
from repro.workloads.base import Kernel

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.cp.global_cp import GlobalCP
    from repro.gpu.config import GPUConfig


class PacketKind(enum.Enum):
    """Software-queue packet types (AQL-like)."""

    KERNEL_DISPATCH = "kernel_dispatch"
    BARRIER = "barrier"


@dataclass(frozen=True)
class SoftwarePacket:
    """One entry in a driver software queue."""

    kind: PacketKind
    kernel: Optional[KernelPacket] = None

    def __post_init__(self) -> None:
        if self.kind is PacketKind.KERNEL_DISPATCH and self.kernel is None:
            raise ValueError("a dispatch packet needs a kernel")


class SoftwareQueue:
    """A driver-side queue for one stream (ring buffer + doorbell)."""

    def __init__(self, stream_id: int) -> None:
        self.stream_id = stream_id
        self._ring: Deque[SoftwarePacket] = deque()

    def push(self, packet: SoftwarePacket) -> None:
        """Write one packet into the ring."""
        self._ring.append(packet)

    def ring_doorbell(self) -> List[SoftwarePacket]:
        """Signal the CP: hand over everything written so far."""
        drained = list(self._ring)
        self._ring.clear()
        return drained

    def __len__(self) -> int:
        return len(self._ring)


class GPUDriver:
    """The software stack between an application and the global CP.

    Responsibilities modeled:

    * dense dynamic-kernel numbering (``kernel_id``),
    * building each dispatch packet with its Sec. III-B access-mode /
      range metadata (from the :class:`~repro.workloads.base.KernelArg`
      annotations),
    * per-stream software queues with doorbell submission to the CP.
    """

    def __init__(self, config: "GPUConfig") -> None:
        self.config = config
        self._queues: Dict[int, SoftwareQueue] = {}
        #: Kernels enqueued so far, which is also the next one's id.
        self.kernels_enqueued = 0

    def queue_for_stream(self, stream_id: int) -> SoftwareQueue:
        """Return (creating on demand) the stream's software queue."""
        queue = self._queues.get(stream_id)
        if queue is None:
            queue = SoftwareQueue(stream_id)
            self._queues[stream_id] = queue
        return queue

    def enqueue_kernel(self, kernel: Kernel) -> KernelPacket:
        """Build the kernel's packet and enqueue it on its stream."""
        num_logical = self._expected_logical(kernel)
        packet = kernel.packet(self.kernels_enqueued, num_logical)
        self.kernels_enqueued += 1
        self.queue_for_stream(kernel.stream_id).push(
            SoftwarePacket(PacketKind.KERNEL_DISPATCH, kernel=packet))
        return packet

    def submit(self, global_cp: "GlobalCP") -> int:
        """Ring every doorbell, handing pending packets to the CP.

        Returns the number of kernel dispatches submitted.
        """
        submitted = 0
        for queue in self._queues.values():
            for packet in queue.ring_doorbell():
                if packet.kind is PacketKind.KERNEL_DISPATCH:
                    global_cp.submit(packet.kernel)
                    submitted += 1
        return submitted

    def _expected_logical(self, kernel: Kernel) -> int:
        """Chiplets the WG scheduler will use (for range annotations)."""
        if kernel.chiplet_mask is not None:
            candidates = len([c for c in kernel.chiplet_mask
                              if c < self.config.num_chiplets])
        else:
            candidates = self.config.num_chiplets
        return max(1, min(candidates, kernel.num_wgs))
