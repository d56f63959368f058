"""Sec. VI validation — automated (record-and-replay) annotations.

Runs CPElide twice per workload: once with the hand-written Listing 1/2
annotations, once with annotations *inferred* by recording each kernel's
actual accesses (:mod:`repro.analysis.inference`). If the paper's
automation claim holds, the two runs should be equivalent — same elision
decisions, same performance — meaning most programmers would never write
an annotation by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.inference import (
    compare_annotations,
    replay_with_inferred_annotations,
)
from repro.experiments.runner import DEFAULT_SCALE
from repro.gpu.config import GPUConfig
from repro.gpu.sim import Simulator
from repro.metrics.report import format_table, geomean
from repro.workloads.suite import build_workload

DEFAULT_WORKLOADS = ("square", "hotspot3d", "color", "lud",
                     "rnn-gru-large", "srad")


@dataclass
class InferenceResult:
    """Hand-annotated vs recorder-annotated CPElide."""

    #: workload -> (hand cycles, inferred cycles, hand ops, inferred ops,
    #: mode accuracy).
    rows: Dict[str, "tuple[float, float, int, int, float]"]

    def cycle_ratio(self, workload: str) -> float:
        """Inferred cycles / hand cycles (1.0 = identical performance)."""
        hand, inferred, *_ = self.rows[workload]
        return inferred / hand

    def geomean_ratio(self) -> float:
        """Average equivalence across workloads."""
        return geomean(self.cycle_ratio(name) for name in self.rows)


def run(workloads: Optional[Sequence[str]] = None,
        scale: float = DEFAULT_SCALE) -> InferenceResult:
    """Compare hand vs inferred annotations under CPElide (4 chiplets)."""
    names = list(workloads) if workloads is not None else list(DEFAULT_WORKLOADS)
    config = GPUConfig(num_chiplets=4, scale=scale)
    rows: Dict[str, "tuple[float, float, int, int, float]"] = {}
    for name in names:
        hand_workload = build_workload(name, config)
        stats = compare_annotations(hand_workload, config)
        hand = Simulator(config, "cpelide").run(hand_workload)
        inferred_workload = replay_with_inferred_annotations(
            build_workload(name, config), config)
        inferred = Simulator(config, "cpelide").run(inferred_workload)

        def issued(result):
            sync = result.metrics.total_sync()
            return sync.acquires_issued + sync.releases_issued

        rows[name] = (hand.wall_cycles, inferred.wall_cycles,
                      issued(hand), issued(inferred), stats.mode_accuracy)
    return InferenceResult(rows=rows)


def report(result: InferenceResult) -> str:
    """Render the equivalence table."""
    table: List[List[object]] = []
    for name, (hand, inferred, hand_ops, inf_ops, acc) in result.rows.items():
        table.append([name, inferred / hand, hand_ops, inf_ops,
                      f"{acc:.0%}"])
    table.append(["GEOMEAN", result.geomean_ratio(), "", "", ""])
    return format_table(
        ["workload", "inferred/hand cycles", "sync ops (hand)",
         "sync ops (inferred)", "mode accuracy"],
        table,
        title=("Sec. VI automation: CPElide with record-and-replay "
               "inferred annotations"))
