"""Figure 9 — 4-chiplet memory-subsystem energy, normalized to Baseline.

Component breakdown: L1I, L1D, LDS, L2, NOC, DRAM. The paper's headline:
CPElide reduces average energy 14% over Baseline and 11% over HMG; neither
scheme moves L1/LDS energy, L2 energy barely changes (the L2 is accessed
whether the access hits or misses), and the differences come from network
traffic and DRAM accesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.energy.model import EnergyModel
from repro.experiments.runner import DEFAULT_SCALE, MatrixResult, run_matrix
from repro.metrics.report import format_table, geomean

PROTOCOLS = ("baseline", "cpelide", "hmg")
COMPONENTS = EnergyModel.COMPONENTS


@dataclass
class Fig9Result:
    """Per-(workload, protocol) component energies in joules."""

    matrix: MatrixResult
    breakdowns: Dict[str, Dict[str, Dict[str, float]]]

    def normalized_total(self, workload: str, protocol: str) -> float:
        """One bar height: total energy normalized to Baseline's."""
        base = self.breakdowns[workload]["baseline"]["total"]
        return self.breakdowns[workload][protocol]["total"] / base

    def geomean_normalized(self, protocol: str) -> float:
        """Average normalized energy over all workloads."""
        return geomean(self.normalized_total(name, protocol)
                       for name in self.breakdowns)


def run(workloads: Optional[Sequence[str]] = None,
        scale: float = DEFAULT_SCALE, jobs: int = 1,
        cache: bool = False, progress=None) -> Fig9Result:
    """Run the Fig. 9 sweep (4 chiplets)."""
    matrix = run_matrix(workloads=workloads, protocols=PROTOCOLS,
                        scale=scale, jobs=jobs, cache=cache,
                        progress=progress)
    model = EnergyModel()
    breakdowns: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name in matrix.workloads():
        breakdowns[name] = {}
        for protocol in PROTOCOLS:
            res = matrix.get(name, protocol, 4)
            breakdowns[name][protocol] = res.metrics.energy(model)
    return Fig9Result(matrix=matrix, breakdowns=breakdowns)


def report(result: Fig9Result) -> str:
    """Render the Fig. 9 stacked bars (component shares + totals)."""
    rows: List[List[object]] = []
    for name, per_proto in result.breakdowns.items():
        base_total = per_proto["baseline"]["total"]
        for protocol in PROTOCOLS:
            bd = per_proto[protocol]
            rows.append([name, protocol[0].upper()]
                        + [bd[c] / base_total for c in COMPONENTS]
                        + [bd["total"] / base_total])
    rows.append(["GEOMEAN", "C"] + [""] * len(COMPONENTS)
                + [result.geomean_normalized("cpelide")])
    rows.append(["GEOMEAN", "H"] + [""] * len(COMPONENTS)
                + [result.geomean_normalized("hmg")])
    return format_table(
        ["workload", "cfg"] + list(COMPONENTS) + ["total"], rows,
        title=("Fig. 9: 4-chiplet memory-subsystem energy normalized to "
               "Baseline (B/C/H)"))
