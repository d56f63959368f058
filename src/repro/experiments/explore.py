"""Pareto design-space exploration: ``python -m repro explore``.

The paper evaluates one hardware point (Table I). This driver searches
the *design space around it* — chiplet count x Chiplet Coherence Table
capacity x per-chiplet L2 size — for the Pareto frontier of performance
versus hardware cost, with workload scale as the fidelity axis of a
successive-halving schedule:

* every candidate is first evaluated cheaply (small workload scale);
* after each rung, Pareto-dominated candidates are pruned — dominated
  regions stop consuming workers — and only the frontier plus the best
  half survive to the next, more expensive rung;
* the final rung's frontier is the answer.

Each rung is one :class:`~repro.engine.spec.SweepSpec` (the rung's
surviving configs x the seed workloads x {baseline, cpelide}) executed
through the sweep engine, so rung evaluation fans out over worker
processes, every cell lands in the shared
:class:`~repro.engine.cache.SharedResultCache`, and concurrent explorers
dedupe against each other in flight. The seed workloads mirror the
occupancy/capacity experiments: representatives of the reuse families
whose working-set-to-aggregate-L2 ratio drives the paper's results.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.engine.cache import SharedResultCache
from repro.engine.runner import SweepReport, SweepResult, SweepRunner
from repro.engine.spec import SweepSpec
from repro.errors import ConfigError
from repro.gpu.config import MB, GPUConfig
from repro.metrics.report import format_table
from repro.obs.tracer import Tracer

#: Design-space axes (defaults). The paper's point is (4, 8, 8).
DEFAULT_CHIPLET_COUNTS = (2, 4, 6, 8)
DEFAULT_TABLE_WINDOWS = (4, 8, 16)
DEFAULT_L2_MB = (4, 8, 16)

#: Successive-halving fidelity rungs (workload scale, cheap -> faithful).
DEFAULT_RUNGS = (1 / 64, 1 / 32, 1 / 16)
QUICK_RUNGS = (1 / 64, 1 / 32)

#: Seed workloads, one per access/reuse family of the occupancy and
#: capacity experiments: iterative stencil (hotspot), multi-kernel
#: pipeline (backprop), irregular frontier (bfs), streaming (square).
DEFAULT_SEED_WORKLOADS = ("hotspot", "backprop", "bfs", "square")

#: Default protocols evaluated per design point: the paper's mechanism
#: and the implicit-sync baseline it is measured against. ``explore()``
#: accepts any registry protocol via ``protocol=`` (``--protocol`` on
#: the CLI) and measures it against the same baseline.
EXPLORE_PROTOCOLS = ("baseline", "cpelide")

#: Lease lengths searched when the lease axis is enabled (timestamp
#: protocols read ``GPUConfig.lease_kernels``; ``--lease-kernels``).
DEFAULT_LEASES = (2, 4, 8)

#: Hardware-cost proxy constants, in CU-equivalent area units: one CU is
#: the unit; 1 MB of L2 SRAM costs ~4 CU-equivalents; one Chiplet
#: Coherence Table entry is ~32 B of CP SRAM — four orders of magnitude
#: below a CU, but priced non-zero so that of two equal-performance
#: points the smaller table wins the frontier.
L2_AREA_PER_MB = 4.0
TABLE_AREA_PER_ENTRY = 0.005

#: Survivor fraction per successive-halving rung (the Pareto frontier
#: always survives regardless).
KEEP_FRACTION = 0.5


@dataclass(frozen=True)
class DesignPoint:
    """One candidate hardware configuration.

    ``lease`` joins the search space when the swept protocol reads
    ``GPUConfig.lease_kernels`` (the timestamp protocols); ``None``
    leaves the config's lease untouched and the label unchanged. A lease
    is a protocol time constant, not silicon, so it never contributes to
    the area-cost proxy — points differing only in lease compete purely
    on cycles.
    """

    num_chiplets: int
    table_window: int
    l2_mb: int
    lease: Optional[int] = None

    @property
    def label(self) -> str:
        label = f"c{self.num_chiplets}-w{self.table_window}-l2x{self.l2_mb}"
        if self.lease is not None:
            label += f"-ls{self.lease}"
        return label

    @property
    def table_entries(self) -> int:
        """Chiplet Coherence Table capacity (structs/kernel x window)."""
        return 8 * self.table_window

    @property
    def cost(self) -> float:
        """Hardware cost proxy in CU-equivalent area units."""
        per_chiplet = (60 + L2_AREA_PER_MB * self.l2_mb)
        return (self.num_chiplets * per_chiplet
                + TABLE_AREA_PER_ENTRY * self.table_entries)

    def to_config(self, scale: float,
                  base: Optional[GPUConfig] = None) -> GPUConfig:
        base = base or GPUConfig()
        config = dataclasses.replace(
            base, num_chiplets=self.num_chiplets,
            table_kernel_window=self.table_window,
            l2_size=self.l2_mb * MB, scale=scale)
        if self.lease is not None:
            config = dataclasses.replace(config, lease_kernels=self.lease)
        return config

    def to_dict(self) -> Dict[str, Any]:
        return {"num_chiplets": self.num_chiplets,
                "table_window": self.table_window,
                "l2_mb": self.l2_mb,
                "lease": self.lease,
                "table_entries": self.table_entries,
                "cost": round(self.cost, 3),
                "label": self.label}


@dataclass
class PointScore:
    """One design point's evaluation at one rung."""

    point: DesignPoint
    cycles: float        # measured-protocol cycles over the seed workloads
    speedup: float       # baseline cycles / measured-protocol cycles
    elided: int          # sync ops elided across the seed workloads

    def dominates(self, other: "PointScore") -> bool:
        """Pareto dominance on (cycles, cost): at least as good on both
        objectives and strictly better on one."""
        return (self.cycles <= other.cycles
                and self.point.cost <= other.point.cost
                and (self.cycles < other.cycles
                     or self.point.cost < other.point.cost))

    def to_dict(self) -> Dict[str, Any]:
        return {"point": self.point.to_dict(),
                "cycles": self.cycles,
                "speedup": round(self.speedup, 4),
                "elided": self.elided}


@dataclass
class RungReport:
    """One successive-halving rung: who was evaluated, who survived."""

    rung: int
    scale: float
    scores: List[PointScore]
    frontier: List[str]     # labels, cheapest-first
    pruned: List[str]       # labels dropped before the next rung
    report: SweepReport

    def to_dict(self) -> Dict[str, Any]:
        return {"rung": self.rung, "scale": self.scale,
                "scores": [s.to_dict() for s in self.scores],
                "frontier": self.frontier, "pruned": self.pruned,
                "sweep": self.report.summary()}


@dataclass
class ExploreResult:
    """The full exploration: per-rung history plus the final frontier."""

    rungs: List[RungReport]
    frontier: List[PointScore]
    #: Registry name of the measured protocol (scored against baseline).
    protocol: str = "cpelide"

    def to_dict(self) -> Dict[str, Any]:
        return {"rungs": [r.to_dict() for r in self.rungs],
                "frontier": [s.to_dict() for s in self.frontier],
                "protocol": self.protocol}

    def render(self) -> str:
        rows: List[List[object]] = []
        frontier_labels = {s.point.label for s in self.frontier}
        final = self.rungs[-1]
        for score in sorted(final.scores, key=lambda s: s.point.cost):
            rows.append([
                score.point.label,
                score.point.num_chiplets,
                score.point.table_entries,
                score.point.l2_mb,
                f"{score.point.cost:.0f}",
                f"{score.cycles:.3g}",
                f"{score.speedup:.2f}x",
                "*" if score.point.label in frontier_labels else "",
            ])
        evaluated = sum(len(r.scores) for r in self.rungs)
        pruned = sum(len(r.pruned) for r in self.rungs)
        table = format_table(
            ["point", "chiplets", "table", "L2 MB/chiplet", "cost",
             f"{self.protocol} cycles", "vs baseline", "frontier"],
            rows,
            title=(f"Pareto exploration: {len(self.rungs)} rungs, "
                   f"{evaluated} evaluations, {pruned} pruned, "
                   f"{len(self.frontier)} frontier points (*)"))
        return table


def design_points(
        chiplet_counts: Sequence[int] = DEFAULT_CHIPLET_COUNTS,
        table_windows: Sequence[int] = DEFAULT_TABLE_WINDOWS,
        l2_mb: Sequence[int] = DEFAULT_L2_MB,
        leases: Optional[Sequence[int]] = None) -> List[DesignPoint]:
    """The full cartesian candidate grid, in deterministic order.

    ``leases=None`` (the default) omits the lease axis entirely;
    otherwise every point is crossed with each lease length.
    """
    if leases is None:
        return [DesignPoint(num_chiplets=c, table_window=w, l2_mb=m)
                for c in chiplet_counts for w in table_windows for m in l2_mb]
    return [DesignPoint(num_chiplets=c, table_window=w, l2_mb=m, lease=ls)
            for c in chiplet_counts for w in table_windows
            for m in l2_mb for ls in leases]


def seed_spec(points: Sequence[DesignPoint], scale: float,
              workloads: Sequence[str] = DEFAULT_SEED_WORKLOADS,
              base: Optional[GPUConfig] = None,
              protocols: Sequence[str] = EXPLORE_PROTOCOLS) -> SweepSpec:
    """One rung's sweep: every candidate config x seed workloads x
    the measured protocols. Also the ``bench --sweep dist`` seed sweep."""
    configs = tuple(p.to_config(scale, base) for p in points)
    return SweepSpec(workloads=tuple(workloads),
                     protocols=tuple(protocols), configs=configs)


def _score_rung(points: Sequence[DesignPoint], scale: float,
                workloads: Sequence[str], sweep: SweepResult,
                base: Optional[GPUConfig],
                protocol: str = "cpelide") -> List[PointScore]:
    scores: List[PointScore] = []
    for point in points:
        config = point.to_config(scale, base)
        base_cycles = proto_cycles = 0.0
        elided = 0
        for workload in workloads:
            # Match by full config, not just chiplet count: two points
            # can share a chiplet count but differ in L2/table/lease.
            for outcome in sweep.outcomes:
                if (outcome.workload == workload
                        and outcome.job.config == config):
                    if outcome.job.protocol == protocol:
                        result = outcome.result
                        proto_cycles += result.wall_cycles
                        sync = result.metrics.total_sync()
                        elided += (sync.acquires_elided
                                   + sync.releases_elided)
                    elif outcome.job.protocol == "baseline":
                        base_cycles += outcome.result.wall_cycles
        if protocol == "baseline":
            base_cycles = proto_cycles
        scores.append(PointScore(
            point=point, cycles=proto_cycles,
            speedup=(base_cycles / proto_cycles if proto_cycles else 0.0),
            elided=elided))
    return scores


def pareto_frontier(scores: Sequence[PointScore]) -> List[PointScore]:
    """Non-dominated subset on (cycles, cost), cheapest first."""
    frontier = [s for s in scores
                if not any(o.dominates(s) for o in scores if o is not s)]
    return sorted(frontier, key=lambda s: s.point.cost)


def _survivors(scores: List[PointScore]) -> List[PointScore]:
    """Frontier plus the best :data:`KEEP_FRACTION` by scalarized
    cycles x cost (the successive-halving keep rule; at least two)."""
    frontier = pareto_frontier(scores)
    keep = max(2, math.ceil(len(scores) * KEEP_FRACTION))
    by_product = sorted(scores, key=lambda s: s.cycles * s.point.cost)
    kept = {s.point for s in frontier}
    for score in by_product:
        if len(kept) >= keep:
            break
        kept.add(score.point)
    return [s for s in scores if s.point in kept]


def explore(chiplet_counts: Sequence[int] = DEFAULT_CHIPLET_COUNTS,
            table_windows: Sequence[int] = DEFAULT_TABLE_WINDOWS,
            l2_mb: Sequence[int] = DEFAULT_L2_MB,
            workloads: Sequence[str] = DEFAULT_SEED_WORKLOADS,
            rungs: Sequence[float] = DEFAULT_RUNGS,
            workers: int = 1,
            cache: Union[bool, SharedResultCache, None] = True,
            base_config: Optional[GPUConfig] = None,
            progress=None,
            tracer: Optional[Tracer] = None,
            protocol: str = "cpelide",
            leases: Optional[Sequence[int]] = None) -> ExploreResult:
    """Run the successive-halving Pareto search.

    ``workers`` sizes the runner's fork pool per rung; ``cache`` is the
    shared result cache (``True`` = the default cache root), so repeated
    or concurrent explorations share cells; ``False``/``None`` uses
    none. ``protocol`` is the measured mechanism — any registry name
    (api 4.0); it is swept next to ``baseline`` and scored against it.
    ``leases`` adds the ``GPUConfig.lease_kernels`` axis to the design
    space (meaningful for the timestamp protocols). Returns the
    :class:`ExploreResult` with the frontier of the final rung.
    """
    from repro.coherence.registry import get_protocol
    get_protocol(protocol)  # ConfigError on unknown names, up front
    if not rungs:
        raise ConfigError("explore() needs at least one fidelity rung")
    if not isinstance(cache, SharedResultCache):
        cache = SharedResultCache() if cache else None
    points = design_points(chiplet_counts, table_windows, l2_mb, leases)
    if not points:
        raise ConfigError("explore() needs a non-empty design space")
    protocols = (("baseline", protocol) if protocol != "baseline"
                 else ("baseline",))
    rung_reports: List[RungReport] = []
    scores: List[PointScore] = []
    for rung_index, scale in enumerate(rungs):
        if progress is not None:
            progress(f"rung {rung_index}: {len(points)} points at scale "
                     f"{scale:g} "
                     f"({len(points) * len(workloads) * len(protocols)} "
                     f"cells)")
        spec = seed_spec(points, scale, workloads, base_config, protocols)
        runner = SweepRunner(workers=workers, cache=cache,
                             progress=progress, tracer=tracer)
        sweep = runner.run(spec)
        scores = _score_rung(points, scale, workloads, sweep, base_config,
                             protocol)
        frontier = pareto_frontier(scores)
        last = rung_index == len(rungs) - 1
        survivors = scores if last else _survivors(scores)
        pruned = sorted(s.point.label for s in scores
                        if s.point not in {t.point for t in survivors})
        rung_reports.append(RungReport(
            rung=rung_index, scale=scale, scores=scores,
            frontier=[s.point.label for s in frontier], pruned=pruned,
            report=sweep.report))
        if progress is not None:
            progress(f"rung {rung_index}: frontier "
                     f"{[s.point.label for s in frontier]}, "
                     f"pruned {len(pruned)}")
        points = [s.point for s in survivors]
    return ExploreResult(rungs=rung_reports,
                         frontier=pareto_frontier(scores),
                         protocol=protocol)
