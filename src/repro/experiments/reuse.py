"""Table II — reuse classification of the workload suite.

The paper groups applications into moderate-to-high versus low-to-no
inter-kernel reuse by computing "the miss rate reduction from inter-kernel
reuse with no flush/invalidation overhead" (Sec. IV-D). We reproduce the
measurement with the ``nosync`` protocol (Baseline's data path with all
implicit synchronization disabled) and compare each app's measured
reduction against the paper's grouping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.runner import DEFAULT_SCALE, run_matrix
from repro.metrics.report import format_table
from repro.workloads.suite import HIGH_REUSE

#: Miss-rate-reduction threshold between the two groups. The paper calls
#: ">15%" larger reuse (Sec. V-A).
THRESHOLD = 0.15


@dataclass
class ReuseResult:
    """Measured inter-kernel reuse potential per workload."""

    #: workload -> (baseline L2 miss rate, nosync L2 miss rate).
    miss_rates: Dict[str, "tuple[float, float]"]

    def reduction(self, workload: str) -> float:
        """Fractional miss-rate reduction from perfect elision."""
        base, nosync = self.miss_rates[workload]
        if base == 0:
            return 0.0
        return (base - nosync) / base

    def measured_class(self, workload: str) -> str:
        """'high' or 'low' by the measured reduction."""
        return "high" if self.reduction(workload) >= THRESHOLD else "low"

    def paper_class(self, workload: str) -> str:
        """Table II's grouping."""
        return "high" if workload in HIGH_REUSE else "low"

    def agreement(self) -> float:
        """Fraction of workloads whose measured class matches Table II."""
        names = list(self.miss_rates)
        hits = sum(1 for n in names
                   if self.measured_class(n) == self.paper_class(n))
        return hits / len(names)


def run(workloads: Optional[Sequence[str]] = None,
        scale: float = DEFAULT_SCALE, jobs: int = 1,
        cache: bool = False, progress=None) -> ReuseResult:
    """Measure miss-rate reduction for each workload (4 chiplets)."""
    matrix = run_matrix(workloads=workloads, protocols=("baseline", "nosync"),
                        scale=scale, jobs=jobs, cache=cache,
                        progress=progress)
    miss_rates: Dict[str, "tuple[float, float]"] = {}
    for name in matrix.workloads():
        base, nosync = (matrix.get(name, protocol, 4).metrics.total_accesses()
                        for protocol in ("baseline", "nosync"))
        miss_rates[name] = (base.l2_miss_rate, nosync.l2_miss_rate)
    return ReuseResult(miss_rates=miss_rates)


def report(result: ReuseResult) -> str:
    """Render the Table II classification."""
    rows: List[List[object]] = []
    for name in result.miss_rates:
        base, nosync = result.miss_rates[name]
        rows.append([name, base, nosync, result.reduction(name) * 100.0,
                     result.measured_class(name), result.paper_class(name)])
    rows.append(["AGREEMENT", "", "", "", "", f"{result.agreement():.0%}"])
    return format_table(
        ["workload", "baseline miss", "no-sync miss", "reduction %",
         "measured", "Table II"], rows,
        title="Table II grouping: inter-kernel reuse potential")
