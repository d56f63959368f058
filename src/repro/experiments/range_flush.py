"""Sec. VI ablation — fine-grained hardware range-based flush.

Plain CPElide must flush/invalidate a *whole* L2 even when only some
addresses need it (the software hints are virtual, the L2 is physical).
The paper sketches a hardware extension translating page-wise ranges so
targeted L2 flushes become possible. The ``cpelide-range`` protocol
implements that extension; this ablation measures what it buys on
workloads whose sync ops fire while unrelated data is resident.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.runner import DEFAULT_SCALE, run_matrix
from repro.metrics.report import format_table, geomean

#: Defaults: workloads whose sync ops fire while *unrelated* data is
#: resident — graph apps invalidating a frontier/color array while the
#: read-only CSR structure sits in the same L2, plus irregular HPC codes.
DEFAULT_WORKLOADS = ("color", "sssp", "bfs", "fw", "lulesh", "srad")


@dataclass
class RangeFlushResult:
    """Whole-cache vs range-based CPElide."""

    cycles: Dict[str, Dict[str, float]]
    lines_moved: Dict[str, Dict[str, int]]

    def range_speedup(self, workload: str) -> float:
        """Whole-cache cycles / range-op cycles (>1 = extension helps)."""
        per = self.cycles[workload]
        return per["cpelide"] / per["cpelide-range"]

    def geomean_speedup(self) -> float:
        """Average benefit of the hardware extension."""
        return geomean(self.range_speedup(name) for name in self.cycles)


def run(workloads: Optional[Sequence[str]] = None,
        scale: float = DEFAULT_SCALE, jobs: int = 1,
        cache: bool = False, progress=None) -> RangeFlushResult:
    """Compare whole-cache CPElide against the range extension
    (4 chiplets)."""
    names = list(workloads) if workloads is not None else list(DEFAULT_WORKLOADS)
    matrix = run_matrix(workloads=names,
                        protocols=("cpelide", "cpelide-range"),
                        scale=scale, jobs=jobs, cache=cache,
                        progress=progress)
    cycles: Dict[str, Dict[str, float]] = {}
    lines: Dict[str, Dict[str, int]] = {}
    for name in names:
        cycles[name] = {}
        lines[name] = {}
        for protocol in ("cpelide", "cpelide-range"):
            res = matrix.get(name, protocol, 4)
            cycles[name][protocol] = res.wall_cycles
            sync = res.metrics.total_sync()
            lines[name][protocol] = (sync.lines_flushed
                                     + sync.lines_invalidated)
    return RangeFlushResult(cycles=cycles, lines_moved=lines)


def report(result: RangeFlushResult) -> str:
    """Render the ablation."""
    rows: List[List[object]] = []
    for name in result.cycles:
        rows.append([
            name,
            result.range_speedup(name),
            result.lines_moved[name]["cpelide"],
            result.lines_moved[name]["cpelide-range"],
        ])
    rows.append(["GEOMEAN", result.geomean_speedup(), "", ""])
    return format_table(
        ["workload", "range-op speedup", "lines (whole-cache)",
         "lines (range)"], rows,
        title="Sec. VI ablation: hardware range-based flush extension")
