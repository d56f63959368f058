"""One GPU chiplet: CUs, L1 filter, LDS, shared L2, local CP.

Each chiplet has dedicated CUs, each with a private L1 cache and LDS, plus
an L2 shared across the chiplet's CUs (Sec. II-A, Fig. 3 breakout). The
chiplet object groups the per-chiplet hardware the device instantiates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.memory.cache import SetAssocCache, WritePolicy
from repro.memory.lds import LocalDataShare

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.gpu.config import GPUConfig


class Chiplet:
    """Hardware state of one chiplet."""

    def __init__(self, chiplet_id: int, config: "GPUConfig",
                 l2_policy: WritePolicy = WritePolicy.WRITE_BACK) -> None:
        self.chiplet_id = chiplet_id
        self.config = config
        self.l2 = SetAssocCache(
            size_bytes=config.scaled_l2_size,
            assoc=config.l2_assoc,
            line_size=config.line_size,
            policy=l2_policy,
            name=f"L2[{chiplet_id}]",
        )
        self.lds = LocalDataShare(size_bytes=config.lds_size,
                                  latency_cycles=config.lds_latency)

    @property
    def num_cus(self) -> int:
        """CUs on this chiplet (Table I: 60)."""
        return self.config.cus_per_chiplet

    def __repr__(self) -> str:
        return f"Chiplet({self.chiplet_id}, {self.num_cus} CUs, {self.l2!r})"
