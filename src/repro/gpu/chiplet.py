"""One GPU chiplet: CUs and their shared L2.

Each chiplet has dedicated CUs, each with a private L1 cache and LDS, plus
an L2 shared across the chiplet's CUs (Sec. II-A, Fig. 3 breakout). The
L2 is the chiplet's only simulated state: the device's L1 filter stands
in for the L1s, an LDS access is counted per kernel
(``AccessCounts.lds_accesses``) with the LDS size and latency taken from
:class:`~repro.gpu.config.GPUConfig`, and the device holds each
chiplet's local CP.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.memory.cache import SetAssocCache, WritePolicy

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

    @property
    def num_cus(self) -> int:
        """CUs on this chiplet (Table I: 60)."""
        return self.config.cus_per_chiplet

    def __repr__(self) -> str:
        return f"Chiplet({self.chiplet_id}, {self.num_cus} CUs, {self.l2!r})"
