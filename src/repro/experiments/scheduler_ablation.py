"""Ablation — locality-aware WG scheduling in conjunction with CPElide.

Sec. VII: intelligent schedulers "could be used in conjunction with
CPElide, which has detailed information about where data is being
accessed and tight coupling with the WG scheduler". This ablation builds
the scenario where scheduling matters: a producer phase restricted to a
chiplet subset, followed by narrow (single-chiplet) consumer kernels.
The default static scheduler always puts narrow kernels on chiplet 0 —
all remote reads; the locality-aware scheduler steers them to the
producer's chiplets, turning the reads local and letting CPElide's
elision pay off on the reused data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.cp.packets import AccessMode
from repro.experiments.runner import DEFAULT_SCALE
from repro.gpu.config import GPUConfig
from repro.gpu.sim import Simulator
from repro.memory.address import AddressSpace
from repro.metrics.report import format_table
from repro.workloads.base import Kernel, KernelArg, Workload


def build_producer_consumer(config: GPUConfig,
                            consumer_kernels: int = 12) -> Workload:
    """Producer on chiplets {2,3}; narrow consumers, scheduler's choice."""
    space = AddressSpace()
    data = space.alloc("produced", max(4096, int(4 * 2 ** 20 * config.scale)))
    kernels: List[Kernel] = [
        Kernel("produce", args=(KernelArg(data, AccessMode.RW),),
               chiplet_mask=(2, 3), compute_intensity=2.0),
    ]
    for i in range(consumer_kernels):
        kernels.append(Kernel(
            f"consume{i}", args=(KernelArg(data, AccessMode.R),),
            num_wgs=1,                    # narrow: one chiplet
            compute_intensity=2.0))
    return Workload(name="producer-consumer", space=space, kernels=kernels)


@dataclass
class SchedulerAblationResult:
    """Static vs locality-aware scheduling, per protocol."""

    cycles: Dict[str, Dict[str, float]]
    remote_flits: Dict[str, Dict[str, int]]

    def locality_speedup(self, protocol: str) -> float:
        """Static cycles / locality cycles (>1 = steering helps)."""
        per = self.cycles[protocol]
        return per["static"] / per["locality"]


def run(scale: float = DEFAULT_SCALE) -> SchedulerAblationResult:
    """Run the producer-consumer scenario under both schedulers
    (4 chiplets)."""
    config = GPUConfig(num_chiplets=4, scale=scale)
    cycles: Dict[str, Dict[str, float]] = {}
    remote: Dict[str, Dict[str, int]] = {}
    for protocol in ("baseline", "cpelide"):
        cycles[protocol] = {}
        remote[protocol] = {}
        for scheduler in ("static", "locality"):
            workload = build_producer_consumer(config)
            res = Simulator(config, protocol, scheduler=scheduler).run(workload)
            cycles[protocol][scheduler] = res.wall_cycles
            remote[protocol][scheduler] = res.metrics.total_traffic().remote
    return SchedulerAblationResult(cycles=cycles, remote_flits=remote)


def report(result: SchedulerAblationResult) -> str:
    """Render the ablation."""
    rows: List[List[object]] = []
    for protocol in result.cycles:
        rows.append([
            protocol,
            result.locality_speedup(protocol),
            result.remote_flits[protocol]["static"],
            result.remote_flits[protocol]["locality"],
        ])
    return format_table(
        ["protocol", "locality-sched speedup", "remote flits (static)",
         "remote flits (locality)"],
        rows,
        title=("Scheduler ablation: steering narrow consumers to the "
               "producer's chiplets"))
