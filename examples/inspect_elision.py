#!/usr/bin/env python3
"""Inspect CPElide's decisions kernel by kernel.

Uses the event tracer and the analysis tooling to (a) trace every
acquire/release the protocols issue on a producer-consumer sequence —
showing Baseline's blanket synchronization against CPElide's targeted,
lazy operations — and (b) profile the Chiplet Coherence Table's
occupancy over a real workload, checking the paper's never-overflows
claim (Sec. IV-D).

Run:  python examples/inspect_elision.py
"""

from repro.api import EventTracer, build_workload, default_config, simulate
from repro.analysis.occupancy import profile_table_occupancy
from repro.obs.export import render_trace
from repro.cp.packets import AccessMode
from repro.memory.address import AddressSpace
from repro.workloads.base import Kernel, KernelArg, Workload

CONFIG = default_config(num_chiplets=4, scale=1 / 32)


def producer_consumer_workload() -> Workload:
    """Write on all chiplets -> iterate in place -> consume on chiplet 0."""
    space = AddressSpace()
    data = space.alloc("data", 64 * 4096)
    kernels = [
        Kernel("produce", args=(KernelArg(data, AccessMode.RW),)),
        Kernel("iterate", args=(KernelArg(data, AccessMode.RW),)),
        Kernel("iterate", args=(KernelArg(data, AccessMode.RW),)),
        # The reduction runs on one chiplet and needs everyone's data.
        Kernel("reduce", args=(KernelArg(data, AccessMode.R),), num_wgs=1),
        # Then everyone reads again after chiplet 0's (read-only) pass.
        Kernel("broadcast_check", args=(KernelArg(data, AccessMode.R),)),
    ]
    return Workload(name="producer-consumer", space=space, kernels=kernels)


def main() -> None:
    for protocol in ("baseline", "cpelide"):
        tracer = EventTracer()
        simulate(producer_consumer_workload(), protocol, config=CONFIG,
                 tracer=tracer)
        print(render_trace(tracer, "sync", limit=24))

    print("Table occupancy over a real workload (rnn-lstm-large):")
    profile = profile_table_occupancy(
        build_workload("rnn-lstm-large", CONFIG), CONFIG)
    print(f"  dynamic kernels : {profile.num_kernels}")
    print(f"  peak entries    : {profile.peak_entries} "
          f"(capacity {profile.capacity}; paper max across suite: 11)")
    print(f"  overflows       : {profile.overflow_evictions}")
    print(f"  ops elided      : {profile.elision_rate:.0%}")


if __name__ == "__main__":
    main()
