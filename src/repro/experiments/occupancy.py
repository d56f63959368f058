"""Sec. IV-D claim — Chiplet Coherence Table occupancy across the suite.

Table II's caption data: the workloads have up to 510 dynamic kernels and
at most 11 Chiplet Coherence Table entries, and *never overflow* the
64-entry table. This experiment replays every workload's kernel stream
through the elision engine and records peak occupancy and overflow
evictions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.occupancy import (
    TableOccupancyProfile,
    profile_table_occupancy,
)
from repro.experiments.runner import DEFAULT_SCALE
from repro.gpu.config import GPUConfig
from repro.metrics.report import format_table
from repro.workloads.suite import WORKLOAD_NAMES, build_workload


def run(workloads: Optional[Sequence[str]] = None,
        scale: float = DEFAULT_SCALE,
        num_chiplets: int = 4) -> Dict[str, TableOccupancyProfile]:
    """Profile table occupancy for every (or the given) workload.

    The replay runs in this process: it simulates no caches, so it is no
    sweep-engine cell and never reaches the result cache.
    """
    names = list(workloads) if workloads is not None else list(WORKLOAD_NAMES)
    config = GPUConfig(num_chiplets=num_chiplets, scale=scale)
    return {name: profile_table_occupancy(build_workload(name, config),
                                          config)
            for name in names}


def report(profiles: Dict[str, TableOccupancyProfile]) -> str:
    """Render the occupancy summary."""
    rows: List[List[object]] = []
    for name, profile in profiles.items():
        rows.append([
            name, profile.num_kernels, profile.peak_entries,
            profile.capacity, profile.overflow_evictions,
            f"{profile.elision_rate:.0%}",
        ])
    peak = max(p.peak_entries for p in profiles.values())
    overflows = sum(p.overflow_evictions for p in profiles.values())
    rows.append(["MAX / TOTAL", "", peak, "", overflows, ""])
    return format_table(
        ["workload", "dyn. kernels", "peak entries", "capacity",
         "overflows", "ops elided"],
        rows,
        title=("Table occupancy (paper: <= 11 entries, never overflows "
               "the 64-entry table)"))
