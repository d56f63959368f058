"""Memory-subsystem substrate: address space, caches, L1 filter, translation.

The chiplet-based GPU memory hierarchy (paper Fig. 1b / Fig. 3) is:

    CU-private L1 caches -> per-chiplet shared L2 -> banked shared L3 -> HBM

The three evaluated configurations (Baseline, HMG, CPElide) differ only at
and below the L2, so the L2 and L3 are simulated exactly at cache-line
granularity while the L1 is a statistical filter
(:mod:`repro.memory.l1`). HBM and the per-CU LDS hold no simulated
state: the device counts each kernel's DRAM reads/writes and LDS
accesses in :class:`~repro.metrics.stats.AccessCounts`; their latency
and bandwidth are :class:`~repro.gpu.config.GPUConfig` fields the timing
model reads, and their per-access energy is an
:class:`~repro.energy.model.EnergyParams` field.
"""

from repro.memory.address import (
    LINE_SIZE,
    PAGE_SIZE,
    AddressSpace,
    Buffer,
    HomeMap,
    line_index,
    line_of,
    lines_in_range,
    page_of,
)
from repro.memory.cache import (
    BulkResult,
    Eviction,
    SetAssocCache,
    WritePolicy,
)
from repro.memory.l1 import L1Filter
from repro.memory.translation import AddressTranslator, PageSpan

__all__ = [
    "LINE_SIZE",
    "PAGE_SIZE",
    "AddressSpace",
    "Buffer",
    "HomeMap",
    "line_index",
    "line_of",
    "lines_in_range",
    "page_of",
    "BulkResult",
    "Eviction",
    "SetAssocCache",
    "WritePolicy",
    "L1Filter",
    "AddressTranslator",
    "PageSpan",
]
