"""Figure 10 — 4-chiplet interconnect traffic in flits, normalized.

Components: L1-to-L2, L2-to-L3, remote. Headlines: CPElide reduces network
traffic 14% over Baseline and 17% over HMG; CPElide cuts L2-L3 traffic 37%
versus HMG (which writes everything through and caches remote data), and
HMG carries 23% more remote traffic than CPElide because of the
invalidations from tying four cache lines to one directory entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.runner import DEFAULT_SCALE, MatrixResult, run_matrix
from repro.metrics.report import format_table, geomean

PROTOCOLS = ("baseline", "cpelide", "hmg")
COMPONENTS = ("l1_l2", "l2_l3", "remote")


@dataclass
class Fig10Result:
    """Per-(workload, protocol) flit counts."""

    matrix: MatrixResult
    traffic: Dict[str, Dict[str, Dict[str, int]]]

    def normalized_total(self, workload: str, protocol: str) -> float:
        """One bar: total flits normalized to Baseline's."""
        base = self.traffic[workload]["baseline"]["total"]
        return self.traffic[workload][protocol]["total"] / base

    def geomean_normalized(self, protocol: str) -> float:
        """Average normalized traffic over all workloads."""
        return geomean(self.normalized_total(name, protocol)
                       for name in self.traffic)

    def component_ratio(self, component: str, protocol_a: str,
                        protocol_b: str) -> float:
        """Aggregate component-flit ratio A/B (e.g. CPElide vs HMG L2-L3)."""
        a = sum(per[protocol_a][component] for per in self.traffic.values())
        b = sum(per[protocol_b][component] for per in self.traffic.values())
        return a / b if b else float("inf")

    def geomean_component_ratio(self, component: str, protocol_a: str,
                                protocol_b: str) -> float:
        """Geomean of per-workload component ratios A/B (the paper's
        per-app average, e.g. "CPElide reduces L2-L3 traffic by 37%
        versus HMG")."""
        return geomean(
            (per[protocol_a][component] + 1) / (per[protocol_b][component] + 1)
            for per in self.traffic.values())


def run(workloads: Optional[Sequence[str]] = None,
        scale: float = DEFAULT_SCALE, jobs: int = 1,
        cache: bool = False, progress=None) -> Fig10Result:
    """Run the Fig. 10 sweep (4 chiplets)."""
    matrix = run_matrix(workloads=workloads, protocols=PROTOCOLS,
                        scale=scale, jobs=jobs, cache=cache,
                        progress=progress)
    traffic: Dict[str, Dict[str, Dict[str, int]]] = {}
    for name in matrix.workloads():
        traffic[name] = {}
        for protocol in PROTOCOLS:
            res = matrix.get(name, protocol, 4)
            traffic[name][protocol] = res.metrics.total_traffic().as_dict()
    return Fig10Result(matrix=matrix, traffic=traffic)


def report(result: Fig10Result) -> str:
    """Render the Fig. 10 stacked bars."""
    rows: List[List[object]] = []
    for name, per_proto in result.traffic.items():
        base_total = per_proto["baseline"]["total"]
        for protocol in PROTOCOLS:
            tr = per_proto[protocol]
            rows.append([name, protocol[0].upper()]
                        + [tr[c] / base_total for c in COMPONENTS]
                        + [tr["total"] / base_total])
    rows.append(["GEOMEAN", "C"] + [""] * len(COMPONENTS)
                + [result.geomean_normalized("cpelide")])
    rows.append(["GEOMEAN", "H"] + [""] * len(COMPONENTS)
                + [result.geomean_normalized("hmg")])
    return format_table(
        ["workload", "cfg"] + list(COMPONENTS) + ["total"], rows,
        title="Fig. 10: interconnect flits normalized to Baseline (B/C/H)")
