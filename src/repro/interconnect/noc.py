"""Network-on-chip flit accounting.

Fig. 10 reports normalized interconnect traffic measured in flits, divided
into L1-to-L2, L2-to-L3, and remote (inter-chiplet) components. Every
protocol action in the simulator routes its messages through a
:class:`TrafficMeter` so the figure can be regenerated exactly from the
meters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class FlitParams:
    """Message-to-flit conversion parameters.

    A control message (request, invalidation, ACK) is one header flit; a
    data message carries a 64 B cache line in ``line_size / flit_bytes``
    payload flits plus the header.
    """

    flit_bytes: int = 32
    line_size: int = 64

    @property
    def control_flits(self) -> int:
        """Flits in a dataless message."""
        return 1

    @property
    def data_flits(self) -> int:
        """Flits in a message carrying one cache line."""
        return 1 + self.line_size // self.flit_bytes


@dataclass
class TrafficMeter:
    """Flit counters in Fig. 10's three categories.

    Attributes:
        l1_l2: Intra-chiplet flits between the CUs' L1s and the chiplet L2.
        l2_l3: Flits between an L2 and the (local bank of the) shared L3,
            including writebacks, write-throughs, refills, and flushes.
        remote: Inter-chiplet flits (remote requests/data, invalidations,
            CP synchronization messages crossing chiplets).
    """

    params: FlitParams = field(default_factory=FlitParams)
    l1_l2: int = 0
    l2_l3: int = 0
    remote: int = 0

    # -- L1 <-> L2 ------------------------------------------------------

    def l1_request(self, count: int = 1) -> None:
        """Record ``count`` L1->L2 request messages."""
        self.l1_l2 += count * self.params.control_flits

    def l1_data(self, count: int = 1) -> None:
        """Record ``count`` line transfers on the L1<->L2 links."""
        self.l1_l2 += count * self.params.data_flits

    # -- L2 <-> L3 ------------------------------------------------------

    def l2_request(self, count: int = 1) -> None:
        """Record ``count`` L2->L3 request messages."""
        self.l2_l3 += count * self.params.control_flits

    def l2_data(self, count: int = 1) -> None:
        """Record ``count`` line transfers on the L2<->L3 links (refills,
        writebacks, write-throughs, flush writebacks)."""
        self.l2_l3 += count * self.params.data_flits

    # -- inter-chiplet ---------------------------------------------------

    def remote_request(self, count: int = 1) -> None:
        """Record ``count`` inter-chiplet control messages."""
        self.remote += count * self.params.control_flits

    def remote_data(self, count: int = 1) -> None:
        """Record ``count`` inter-chiplet line transfers."""
        self.remote += count * self.params.data_flits

    # -- aggregate -------------------------------------------------------

    @property
    def total(self) -> int:
        """All flits across the three categories."""
        return self.l1_l2 + self.l2_l3 + self.remote

    def as_dict(self) -> Dict[str, int]:
        """Return the three Fig. 10 components plus the total."""
        return {"l1_l2": self.l1_l2, "l2_l3": self.l2_l3,
                "remote": self.remote, "total": self.total}

    def to_dict(self) -> Dict[str, int]:
        """Lossless JSON-serializable dump (components + flit params)."""
        return {
            "l1_l2": int(self.l1_l2),
            "l2_l3": int(self.l2_l3),
            "remote": int(self.remote),
            "flit_bytes": int(self.params.flit_bytes),
            "line_size": int(self.params.line_size),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "TrafficMeter":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            params=FlitParams(flit_bytes=int(data["flit_bytes"]),
                              line_size=int(data["line_size"])),
            l1_l2=int(data["l1_l2"]),
            l2_l3=int(data["l2_l3"]),
            remote=int(data["remote"]),
        )

    def to_row(self) -> List[int]:
        """The meter's fields in field order, the flit params flattened
        first: ``[flit_bytes, line_size, l1_l2, l2_l3, remote]``, with
        :meth:`to_dict`'s ``int`` normalisation."""
        return [int(self.params.flit_bytes), int(self.params.line_size),
                int(self.l1_l2), int(self.l2_l3), int(self.remote)]

    @classmethod
    def from_row(cls, row: Sequence[int],
                 flit_params: Dict[Tuple[int, int], FlitParams],
                 ) -> "TrafficMeter":
        """Rebuild from :meth:`to_row` output. ``flit_params`` maps
        ``(flit_bytes, line_size)`` to one :class:`FlitParams` (frozen,
        so the meters of one result can share it)."""
        flit_bytes, line_size, l1_l2, l2_l3, remote = row
        params = flit_params.get((flit_bytes, line_size))
        if params is None:
            params = flit_params[flit_bytes, line_size] = FlitParams(
                flit_bytes, line_size)
        return cls(params, l1_l2, l2_l3, remote)

    def merge(self, other: "TrafficMeter") -> None:
        """Accumulate ``other`` into ``self``."""
        self.l1_l2 += other.l1_l2
        self.l2_l3 += other.l2_l3
        self.remote += other.remote

    @property
    def remote_bytes(self) -> int:
        """Approximate inter-chiplet bytes (for link bandwidth limits)."""
        return self.remote * self.params.flit_bytes
