"""Sec. VI what-if — managing implicit synchronization at the driver.

Like the CP, the GPU driver knows which data structures each kernel
accesses, so the elision algorithm *could* live there. But the driver
does not know which chiplets a kernel's WGs land on, so the CP would have
to ship its scheduling decisions to the host and wait — prior work shows
such round trips add significant latency [28, 79, 140]. The paper argues
this is why CPElide belongs in the global CP, tightly integrated with the
WG scheduler.

This experiment quantifies the argument: ``cpelide-driver`` makes the
identical elision decisions but pays one host round trip per kernel
launch on the critical path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.runner import DEFAULT_SCALE, run_matrix
from repro.metrics.report import format_table, geomean

DEFAULT_WORKLOADS = ("square", "gaussian", "bfs", "lud", "rnn-gru-large",
                     "pathfinder")


@dataclass
class DriverSyncResult:
    """CP-resident vs driver-resident CPElide."""

    cycles: Dict[str, Dict[str, float]]

    def driver_slowdown(self, workload: str) -> float:
        """Driver-managed cycles / CP-managed cycles (>1 = driver worse)."""
        per = self.cycles[workload]
        return per["cpelide-driver"] / per["cpelide"]

    def geomean_slowdown_percent(self) -> float:
        """Average penalty of moving the mechanism to the driver."""
        return (geomean(self.driver_slowdown(name) for name in self.cycles)
                - 1.0) * 100.0


def run(workloads: Optional[Sequence[str]] = None,
        scale: float = DEFAULT_SCALE, jobs: int = 1,
        cache: bool = False, progress=None) -> DriverSyncResult:
    """Compare CP-resident CPElide against the driver-resident variant
    (4 chiplets)."""
    names = list(workloads) if workloads is not None else list(DEFAULT_WORKLOADS)
    matrix = run_matrix(workloads=names,
                        protocols=("cpelide", "cpelide-driver"),
                        scale=scale, jobs=jobs, cache=cache,
                        progress=progress)
    cycles: Dict[str, Dict[str, float]] = {}
    for name in names:
        cycles[name] = {
            p: matrix.get(name, p, 4).wall_cycles
            for p in ("cpelide", "cpelide-driver")
        }
    return DriverSyncResult(cycles=cycles)


def report(result: DriverSyncResult) -> str:
    """Render the comparison."""
    rows: List[List[object]] = [[name, result.driver_slowdown(name)]
                                for name in result.cycles]
    rows.append(["GEOMEAN SLOWDOWN %", result.geomean_slowdown_percent()])
    return format_table(
        ["workload", "driver-managed / CP-managed"], rows,
        title=("Sec. VI what-if: elision at the driver pays a host round "
               "trip per launch"))
