"""Sec. IV-D claim — Chiplet Coherence Table occupancy across the suite.

Table II's caption data: the workloads have up to 510 dynamic kernels and
at most 11 Chiplet Coherence Table entries, and *never overflow* the
64-entry table. This experiment replays every workload's kernel stream
through the elision engine and records peak occupancy and overflow
evictions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.occupancy import TableOccupancyProfile
from repro.engine.spec import SweepSpec
from repro.experiments.runner import DEFAULT_SCALE
from repro.metrics.report import format_table


def run(workloads: Optional[Sequence[str]] = None,
        scale: float = DEFAULT_SCALE,
        num_chiplets: int = 4, jobs: int = 1,
        cache: bool = False, progress=None,
        tracer=None) -> Dict[str, TableOccupancyProfile]:
    """Profile table occupancy for every (or the given) workload.

    Runs ``kind="occupancy"`` jobs through the sweep engine (the protocol
    axis is collapsed to CPElide — occupancy is a property of the elision
    engine replay, not of the comparator protocols). ``tracer`` attaches
    an observability sink to the sweep (see :mod:`repro.obs`).
    """
    from repro.api import sweep as run_sweep

    spec = SweepSpec.grid(workloads=workloads, protocols=("cpelide",),
                          chiplet_counts=(num_chiplets,), scale=scale,
                          kind="occupancy")
    sweep = run_sweep(spec, jobs=jobs, cache=cache, progress=progress,
                      tracer=tracer)
    return {outcome.workload: outcome.result for outcome in sweep.outcomes}


def report(profiles: Dict[str, TableOccupancyProfile]) -> str:
    """Render the occupancy summary."""
    rows: List[List[object]] = []
    for name, profile in profiles.items():
        rows.append([
            name, profile.num_kernels, profile.peak_entries,
            profile.capacity, profile.overflow_evictions,
            f"{profile.elision_rate:.0%}",
        ])
    peak = max(p.peak_entries for p in profiles.values())
    overflows = sum(p.overflow_evictions for p in profiles.values())
    rows.append(["MAX / TOTAL", "", peak, "", overflows, ""])
    return format_table(
        ["workload", "dyn. kernels", "peak entries", "capacity",
         "overflows", "ops elided"],
        rows,
        title=("Table occupancy (paper: <= 11 entries, never overflows "
               "the 64-entry table)"))
