"""Sec. VI scaling study — mimicked 8- and 16-chiplet overhead.

The paper's ROCm version caps real simulation at 7 chiplets, so to study
larger systems it adds extra *sets* of acquires/releases at kernel
boundaries to a 4-chiplet run: 2 sets mimic 8 chiplets, 4 sets mimic 16.
The study is conservative (the extra operations are serialized although a
real larger system would parallelize some), and measures 1% / 2% average
slowdown — CPElide keeps scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.runner import DEFAULT_SCALE
from repro.metrics.report import format_table, geomean

#: Extra acquire/release sets -> chiplet count they mimic.
MIMICKED = {1: 8, 3: 16}

#: Representative subset (full-suite runs are the benches' fig8 job).
DEFAULT_WORKLOADS = ("babelstream", "hotspot3d", "color", "lud",
                     "rnn-gru-large", "srad")


@dataclass
class ScalingResult:
    """Slowdowns of mimicked larger systems vs plain 4-chiplet CPElide."""

    #: workload -> {mimicked chiplet count -> slowdown factor}.
    slowdowns: Dict[str, Dict[int, float]]

    def average_slowdown_percent(self, mimicked_chiplets: int) -> float:
        """Geomean slowdown for one mimicked size (paper: 1% / 2%)."""
        return (geomean(per[mimicked_chiplets]
                        for per in self.slowdowns.values()) - 1.0) * 100.0


def run(workloads: Optional[Sequence[str]] = None,
        scale: float = DEFAULT_SCALE, jobs: int = 1,
        cache: bool = False, progress=None) -> ScalingResult:
    """Run the mimicked 8/16-chiplet study on a 4-chiplet base.

    The paper's mimic *serializes* the additional chiplets' sets of
    acquires/releases onto the 4-chiplet run's kernel boundaries, so a
    mimicked system with ``k`` extra sets pays the measured boundary
    synchronization time ``k`` more times. (Replaying the duplicated ops
    through the caches is free — flushes are idempotent — so the overhead
    is accounted on the measured sync service time, which is also how the
    study is conservative: a real larger system would overlap the sets.)

    The measured 4-chiplet CPElide runs go through the sweep engine
    (parallel/cached); the mimicked overheads are analytic on top.
    """
    from repro.api import sweep

    names = list(workloads) if workloads is not None else list(DEFAULT_WORKLOADS)
    measured = sweep(workloads=names, protocols=("cpelide",),
                     chiplet_counts=(4,), scale=scale,
                     jobs=jobs, cache=cache, progress=progress)
    slowdowns: Dict[str, Dict[int, float]] = {}
    for name in names:
        result = measured.get(name, "cpelide")
        base = result.wall_cycles
        sync = result.metrics.total_sync_service_cycles
        slowdowns[name] = {}
        for extra_sets, mimicked in MIMICKED.items():
            mimic = base + extra_sets * sync
            slowdowns[name][mimicked] = mimic / base
    return ScalingResult(slowdowns=slowdowns)


def report(result: ScalingResult) -> str:
    """Render the scaling-overhead rows."""
    rows: List[List[object]] = []
    for name, per in result.slowdowns.items():
        rows.append([name] + [per[m] for m in sorted(per)])
    rows.append(["AVG SLOWDOWN %"]
                + [result.average_slowdown_percent(m)
                   for m in sorted(MIMICKED.values())])
    return format_table(
        ["workload", "mimicked 8-chiplet", "mimicked 16-chiplet"], rows,
        title=("Sec. VI scaling study: extra serialized acquire/release "
               "sets (paper: +1% / +2%)"))
