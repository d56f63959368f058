"""Figure 2 — performance lost to missing inter-kernel L2 reuse.

The paper compares its workloads on a 4-chiplet GPU against an equivalent
(but infeasible to build) monolithic GPU with the same total CUs and
aggregate L2: the chiplet GPU loses 54% on average, in line with prior
work's 29-45% [116, 142].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.runner import DEFAULT_SCALE
from repro.gpu.config import GPUConfig, monolithic_equivalent
from repro.metrics.report import format_table, geomean


@dataclass
class Fig2Result:
    """Per-app slowdown of the 4-chiplet Baseline vs monolithic."""

    slowdowns: Dict[str, float]

    @property
    def average_loss_percent(self) -> float:
        """Geomean performance loss (the paper's headline 54%)."""
        return (geomean(self.slowdowns.values()) - 1.0) * 100.0


def run(workloads: Optional[Sequence[str]] = None,
        scale: float = DEFAULT_SCALE, jobs: int = 1,
        cache: bool = False, progress=None) -> Fig2Result:
    """Measure Baseline-vs-monolithic slowdown per workload: one sweep
    on 4 chiplets and one on their monolithic equivalent, in the same
    workload order."""
    from repro.api import sweep

    chiplet_cfg = GPUConfig(num_chiplets=4, scale=scale)
    engine = {"jobs": jobs, "cache": cache, "progress": progress}
    chiplet = sweep(workloads=workloads, protocols=("baseline",),
                    configs=(chiplet_cfg,), **engine)
    mono = sweep(workloads=workloads, protocols=("monolithic",),
                 configs=(monolithic_equivalent(chiplet_cfg),), **engine)
    slowdowns: Dict[str, float] = {
        chip.workload: chip.result.wall_cycles / flat.result.wall_cycles
        for chip, flat in zip(chiplet.outcomes, mono.outcomes)}
    return Fig2Result(slowdowns=slowdowns)


def report(result: Fig2Result) -> str:
    """Render the Fig. 2 series."""
    rows: List[List[object]] = [
        [name, s, (s - 1.0) * 100.0]
        for name, s in sorted(result.slowdowns.items())
    ]
    rows.append(["AVERAGE (geomean)",
                 geomean(result.slowdowns.values()),
                 result.average_loss_percent])
    return format_table(
        ["workload", "slowdown vs monolithic", "perf loss %"], rows,
        title=("Fig. 2: 4-chiplet Baseline vs equivalent monolithic GPU "
               "(paper: 54% avg loss)"))
