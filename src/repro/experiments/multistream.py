"""Sec. VI multi-stream study.

The paper extends a subset of the benchmarks to run multiple parallel
streams mimicking concurrent jobs [62] (plus gem5-resources' ``streams``):
on 4-chiplet systems CPElide outperforms HMG by 12% on average for these,
with trends mirroring the single-stream workloads.

We build two-job variants: each stream is a full copy of the workload
(separate allocations) bound to half the chiplets via the
``hipSetDevice``-style stream binding of Sec. III-B.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.runner import DEFAULT_SCALE
from repro.gpu.config import GPUConfig
from repro.memory.address import AddressSpace
from repro.metrics.report import format_table, geomean
from repro.workloads.base import Kernel, Workload
from repro.workloads.suite import build_workload

DEFAULT_WORKLOADS = ("babelstream", "square", "color", "rnn-gru-large",
                     "hotspot3d", "backprop")
PROTOCOLS = ("baseline", "hmg", "cpelide")


def make_multistream(name: str, config: GPUConfig,
                     num_streams: int = 2) -> Workload:
    """Build an ``num_streams``-job variant of one workload.

    Each stream gets its own copy of the buffers (independent concurrent
    jobs) and a disjoint chiplet mask.
    """
    if num_streams < 1 or num_streams > config.num_chiplets:
        raise ValueError(
            f"num_streams must be in [1, {config.num_chiplets}], "
            f"got {num_streams}")
    space = AddressSpace()
    kernels: List[Kernel] = []
    per_stream = config.num_chiplets // num_streams
    for stream in range(num_streams):
        source = build_workload(name, config)
        mask = tuple(range(stream * per_stream, (stream + 1) * per_stream))
        remap = {}
        for buf in source.space.buffers:
            remap[buf.base] = space.alloc(f"s{stream}:{buf.name}", buf.size)
        for kernel in source.kernels:
            args = tuple(dataclasses.replace(arg, buffer=remap[arg.buffer.base])
                         for arg in kernel.args)
            kernels.append(dataclasses.replace(
                kernel, args=args, stream_id=stream, chiplet_mask=mask))
    return Workload(name=f"{name}-ms{num_streams}", space=space,
                    kernels=kernels, reuse_class=source.reuse_class,
                    description=f"{num_streams} concurrent {name} jobs")


@dataclass
class MultiStreamResult:
    """Per-workload cycles per protocol for the multi-stream variants."""

    cycles: Dict[str, Dict[str, float]]

    def speedup(self, workload: str, protocol: str) -> float:
        """Baseline-normalized speedup."""
        return self.cycles[workload]["baseline"] / self.cycles[workload][protocol]

    def cpelide_vs_hmg_percent(self) -> float:
        """Geomean CPElide improvement over HMG (paper: 12%)."""
        ratios = [per["hmg"] / per["cpelide"] for per in self.cycles.values()]
        return (geomean(ratios) - 1.0) * 100.0


def run(workloads: Optional[Sequence[str]] = None,
        scale: float = DEFAULT_SCALE, jobs: int = 1,
        cache: bool = False, progress=None) -> MultiStreamResult:
    """Run the multi-stream comparison on 4 chiplets.

    Includes gem5-resources' natively multi-stream ``streams`` benchmark
    (the one existing multi-stream GPU benchmark, Sec. VI) alongside the
    two-job variants of the Table II subset. The multi-stream variants
    enter the sweep engine as ``("multistream", name, 2)`` workload
    specs, so they parallelize and cache like any other cell.
    """
    from repro.api import sweep
    from repro.engine.spec import WorkloadSpec

    names = list(workloads) if workloads is not None else list(DEFAULT_WORKLOADS)
    specs: List[WorkloadSpec] = ["streams"]
    specs.extend(("multistream", name, 2) for name in names)
    result = sweep(workloads=specs, protocols=PROTOCOLS, scale=scale,
                   jobs=jobs, cache=cache, progress=progress)
    cycles: Dict[str, Dict[str, float]] = {}
    for outcome in result.outcomes:
        spec = outcome.job.workload
        label = spec if isinstance(spec, str) else spec[1]
        cycles.setdefault(label, {})[outcome.job.protocol] = \
            outcome.result.wall_cycles
    return MultiStreamResult(cycles=cycles)


def report(result: MultiStreamResult) -> str:
    """Render the multi-stream comparison."""
    rows: List[List[object]] = []
    for name in result.cycles:
        rows.append([name, result.speedup(name, "cpelide"),
                     result.speedup(name, "hmg")])
    rows.append(["CPElide vs HMG (avg %)",
                 result.cpelide_vs_hmg_percent(), ""])
    return format_table(
        ["workload (2 streams)", "CPElide", "HMG"], rows,
        title=("Sec. VI multi-stream study: speedup vs Baseline "
               "(paper: CPElide beats HMG by 12%)"))
