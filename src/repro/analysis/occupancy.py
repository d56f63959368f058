"""Chiplet Coherence Table occupancy profiling.

Sec. IV-D claims the evaluated workloads reach *up to 510 dynamic kernels
and 11 Chiplet Coherence Table entries, and never overflow the table*.
This profiler replays a workload's kernel sequence through the elision
engine alone (no cache simulation — the table only sees packets and
placements, Sec. III-A) and records the table's occupancy history, so the
claim can be checked against our workload models directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core.elision import ElisionEngine
from repro.core.table import ChipletCoherenceTable
from repro.cp.wg_scheduler import WGScheduler
from repro.gpu.config import GPUConfig
from repro.workloads.base import Workload


@dataclass
class TableOccupancyProfile:
    """Occupancy history of one workload's run."""

    workload: str
    num_kernels: int
    #: Entries resident after each kernel launch.
    occupancy: List[int] = field(default_factory=list)
    peak_entries: int = 0
    capacity: int = 64
    overflow_evictions: int = 0
    #: Ops the engine issued over the whole run.
    acquires_issued: int = 0
    releases_issued: int = 0
    acquires_elided: int = 0
    releases_elided: int = 0

    @property
    def never_overflows(self) -> bool:
        """The Sec. IV-D claim for one workload."""
        return self.overflow_evictions == 0

    @property
    def elision_rate(self) -> float:
        """Fraction of baseline-equivalent sync ops elided."""
        issued = self.acquires_issued + self.releases_issued
        elided = self.acquires_elided + self.releases_elided
        total = issued + elided
        return elided / total if total else 1.0


def profile_table_occupancy(workload: Workload,
                            config: GPUConfig) -> TableOccupancyProfile:
    """Replay ``workload`` through the elision engine and profile it."""
    table = ChipletCoherenceTable(
        num_chiplets=config.num_chiplets,
        structs_per_kernel=config.table_structs_per_kernel,
        kernel_window=config.table_kernel_window)
    engine = ElisionEngine(table)
    scheduler = WGScheduler(config.num_chiplets)
    profile = TableOccupancyProfile(workload=workload.name,
                                    num_kernels=workload.num_kernels,
                                    capacity=table.capacity)
    for kernel_id, kernel in enumerate(workload.kernels):
        num_logical = min(
            config.num_chiplets if kernel.chiplet_mask is None
            else len(kernel.chiplet_mask),
            kernel.num_wgs)
        packet = kernel.packet(kernel_id, max(1, num_logical))
        placement = scheduler.place(packet)
        outcome = engine.process_launch(packet, placement)
        profile.occupancy.append(len(table))
        profile.acquires_issued += outcome.acquires_issued
        profile.releases_issued += outcome.releases_issued
        profile.acquires_elided += outcome.acquires_elided
        profile.releases_elided += outcome.releases_elided
    profile.peak_entries = table.peak_entries
    profile.overflow_evictions = table.overflow_evictions
    return profile
