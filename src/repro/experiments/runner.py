"""Shared experiment execution: (workload x protocol x chiplets) sweeps.

Every sweep here runs through :func:`repro.api.sweep` (the engine's one
:class:`~repro.engine.runner.SweepRunner`); the figure/table harnesses
keep their historical :class:`MatrixResult` shape on top of it.
``jobs``/``cache`` thread through from the CLIs' ``--jobs`` and
``--no-cache`` flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.runner import ProgressFn, SweepReport
from repro.engine.spec import DEFAULT_SCALE, SweepSpec
from repro.gpu.sim import SimulationResult

#: Chiplet counts evaluated in Fig. 8 (Sec. IV-E: ROCm memory-aperture
#: constraints cap the paper's sweep at 7 chiplets).
CHIPLET_COUNTS = (2, 4, 6, 7)


@dataclass
class MatrixResult:
    """Results of a (workload x protocol x chiplets) sweep."""

    scale: float
    #: (workload, protocol, num_chiplets) -> simulation result.
    cells: Dict[Tuple[str, str, int], SimulationResult] = field(
        default_factory=dict)
    #: Execution summary of the engine sweep that produced the cells.
    report: Optional[SweepReport] = None

    def get(self, workload: str, protocol: str,
            num_chiplets: int) -> SimulationResult:
        """Fetch one cell."""
        return self.cells[(workload, protocol, num_chiplets)]

    def speedup_over_baseline(self, workload: str, protocol: str,
                              num_chiplets: int) -> float:
        """Fig. 8 normalization: Baseline cycles / protocol cycles, at the
        same chiplet count."""
        base = self.get(workload, "baseline", num_chiplets).wall_cycles
        other = self.get(workload, protocol, num_chiplets).wall_cycles
        return base / other

    def workloads(self) -> List[str]:
        """Distinct workload names present, in insertion order."""
        seen: List[str] = []
        for name, _, _ in self.cells:
            if name not in seen:
                seen.append(name)
        return seen


def run_matrix(workloads: Optional[Sequence[str]] = None,
               protocols: Sequence[str] = ("baseline", "hmg", "cpelide"),
               chiplet_counts: Sequence[int] = (4,),
               scale: float = DEFAULT_SCALE,
               scheduler: str = "static",
               jobs: int = 1,
               cache: bool = False,
               progress: Optional[ProgressFn] = None) -> MatrixResult:
    """Run a full sweep through the engine.

    Defaults to all 24 workloads on 4 chiplets, in-process and uncached
    (the benchmark suite must measure real simulations); the experiment
    CLIs pass ``jobs``/``cache`` from their flags.
    """
    from repro.api import sweep as run_sweep

    spec = SweepSpec.grid(workloads=workloads, protocols=protocols,
                          chiplet_counts=chiplet_counts, scale=scale,
                          scheduler=scheduler)
    sweep = run_sweep(spec, jobs=jobs, cache=cache, progress=progress)
    result = MatrixResult(scale=scale, report=sweep.report)
    for outcome in sweep.outcomes:
        key = (outcome.workload, outcome.job.protocol,
               outcome.job.config.num_chiplets)
        result.cells[key] = outcome.result
    return result
