"""Capacity-crossover study — why the Sec. V-C exceptions happen.

The paper explains its per-app results through the working-set-to-
aggregate-L2 ratio: CPElide's gains need the aggregate L2 to hold the
reused data (e.g., Backprop/Hotspot3D/SSSP lose their benefit at 2
chiplets "since its aggregate L2 cache capacity is insufficient for their
larger memory footprint"). This study sweeps that ratio directly by
scaling a workload's footprint against fixed caches and locates the
crossover where elision stops paying.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.experiments.runner import DEFAULT_SCALE
from repro.gpu.config import GPUConfig
from repro.metrics.report import format_table
from repro.workloads.suite import build_workload

DEFAULT_FACTORS = (0.5, 1.0, 2.0, 4.0)
DEFAULT_WORKLOAD = "hotspot3d"


@dataclass
class CapacityResult:
    """CPElide speedup vs working-set pressure."""

    workload: str
    #: footprint factor -> (fits ratio, CPElide speedup, L2 miss rate).
    points: Dict[float, "tuple[float, float, float]"]

    def speedup_at(self, factor: float) -> float:
        """CPElide speedup at one footprint factor."""
        return self.points[factor][1]

    def peak_factor(self) -> float:
        """Footprint factor with the largest CPElide gain — the sweet
        spot where the working set exceeds the L3 (so Baseline's
        refetches are expensive) but still fits the aggregate L2 (so
        elision retains it)."""
        return max(self.points, key=lambda f: self.points[f][1])

    def benefit_shrinks_with_pressure(self) -> bool:
        """Whether the gain at the largest footprint is below the peak
        (the Sec. V-C crossover: reuse impossible past the aggregate L2)."""
        factors = sorted(self.points)
        return self.speedup_at(factors[-1]) \
            < self.speedup_at(self.peak_factor())


def run(workload: str = DEFAULT_WORKLOAD,
        factors: Sequence[float] = DEFAULT_FACTORS,
        scale: float = DEFAULT_SCALE, jobs: int = 1,
        cache: bool = False, progress=None) -> CapacityResult:
    """Sweep the workload's footprint against fixed 4-chiplet caches."""
    from repro.api import sweep

    configs = tuple(GPUConfig(num_chiplets=4,
                              scale=scale).with_footprint_factor(factor)
                    for factor in factors)
    result = sweep(workloads=(workload,), protocols=("baseline", "cpelide"),
                   configs=configs, jobs=jobs, cache=cache,
                   progress=progress)
    # Cells come in spec order: per config, baseline then cpelide.
    cells = iter(result.results)
    points: Dict[float, "tuple[float, float, float]"] = {}
    for factor, config in zip(factors, configs):
        base, cpelide = next(cells), next(cells)
        footprint = build_workload(workload, config).footprint_bytes()
        points[factor] = (config.aggregate_l2_size / footprint,
                          base.wall_cycles / cpelide.wall_cycles,
                          cpelide.metrics.total_accesses().l2_miss_rate)
    return CapacityResult(workload=workload, points=points)


def report(result: CapacityResult) -> str:
    """Render the sweep."""
    rows: List[List[object]] = []
    for factor in sorted(result.points):
        fits, speedup, miss = result.points[factor]
        rows.append([factor, fits, speedup, miss])
    return format_table(
        ["footprint x", "aggregate L2 / working set", "CPElide speedup",
         "CPElide L2 miss rate"],
        rows,
        title=(f"Capacity crossover ({result.workload}): the gain peaks "
               "when the working set exceeds the L3 but fits the "
               "aggregate L2, and decays once the L2s cannot hold it"))
