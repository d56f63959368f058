"""Memory-subsystem substrate: address space, caches, L1/LDS models, DRAM.

The chiplet-based GPU memory hierarchy (paper Fig. 1b / Fig. 3) is:

    CU-private L1 caches -> per-chiplet shared L2 -> banked shared L3 -> HBM

The three evaluated configurations (Baseline, HMG, CPElide) differ only at
and below the L2, so the L2/L3/DRAM levels are simulated exactly at
cache-line granularity while the L1 is a statistical filter
(:mod:`repro.memory.l1`).
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
    CacheStats,
    Eviction,
    SetAssocCache,
    WritePolicy,
)
from repro.memory.dram import DRAMModel
from repro.memory.l1 import L1Filter
from repro.memory.lds import LocalDataShare
from repro.memory.npcache import NumpyCacheCore, make_cache_core
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
    "CacheStats",
    "Eviction",
    "NumpyCacheCore",
    "SetAssocCache",
    "WritePolicy",
    "make_cache_core",
    "DRAMModel",
    "L1Filter",
    "LocalDataShare",
    "AddressTranslator",
    "PageSpan",
]
