"""Record-and-replay annotation inference (Sec. VI, Annotation Implications).

CPElide needs software hints: each kernel's data structures, their access
modes, and optionally per-chiplet ranges (Listings 1-2). The paper argues
those hints can be automated — "recent compiler and runtime work showed
that identifying such information can potentially be automated,
especially for workloads with relatively simple access patterns
(like most GPGPU workloads)", citing kernel record-and-replay [107].

This module implements that automation for the simulator:

* **record** — observe one dynamic kernel's actual per-chiplet accesses
  (the same deterministic trace the simulator will execute) and derive
  each data structure's access mode (did any access write?) and each
  chiplet's touched byte range;
* **replay** — rebuild the workload with the *inferred* annotations
  replacing the hand-written ones, so CPElide's table sees only what the
  recorder produced.

Because the inferred ranges cover exactly the observed accesses, the
replayed annotations are always safe, and
:mod:`repro.experiments.inference` shows CPElide performs identically
with them — validating the paper's claim that most programmers never
need to annotate by hand.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Tuple

from repro.cp.packets import AccessMode, ArgAccess, RangeAnnotation
from repro.cp.wg_scheduler import WGScheduler
from repro.gpu.config import GPUConfig
from repro.memory.address import LINE_SIZE
from repro.workloads.base import Kernel, Workload, lines_for_arg


@dataclass(frozen=True)
class InferenceStats:
    """How the inferred annotations compare to the hand-written ones."""

    kernels: int
    args: int
    #: Args whose inferred mode matched the hand annotation.
    mode_matches: int
    #: Total bytes the hand annotations cover beyond the inferred (exact)
    #: ranges — the programmer's conservatism the recorder removes.
    hand_overcoverage_bytes: int

    @property
    def mode_accuracy(self) -> float:
        """Fraction of args whose access mode the recorder reproduced."""
        return self.mode_matches / self.args if self.args else 1.0


def record_kernel_annotations(kernel: Kernel, kernel_id: int,
                              num_logical: int) -> Tuple[ArgAccess, ...]:
    """Record one dynamic kernel and infer its packet annotations.

    The recorder sees the kernel's actual line accesses (deterministic per
    (kernel, placement)); each argument's mode comes from whether its
    sweep writes, and each logical chiplet's range is the tight byte span
    of its observed lines.
    """
    inferred: List[ArgAccess] = []
    for arg in kernel.args:
        mode = (AccessMode.RW if arg.effective_kind.name != "LOAD"
                else AccessMode.R)
        ranges: List[RangeAnnotation] = []
        for logical in range(num_logical):
            lines = lines_for_arg(arg, logical, num_logical, kernel_id)
            if not lines:
                continue
            lo = min(lines) * LINE_SIZE
            hi = (max(lines) + 1) * LINE_SIZE
            ranges.append(RangeAnnotation(lo, hi, logical))
        if not ranges:
            # The kernel never touches the structure on any chiplet at
            # this placement; keep a minimal (safe) whole-buffer label.
            inferred.append(ArgAccess(arg.buffer, mode, ranges=None))
        else:
            inferred.append(ArgAccess(arg.buffer, mode,
                                      ranges=tuple(ranges)))
    return tuple(inferred)


def replay_with_inferred_annotations(workload: Workload,
                                     config: GPUConfig) -> Workload:
    """Rebuild ``workload`` with recorded annotations on every kernel."""
    scheduler = WGScheduler(config.num_chiplets)
    kernels: List[Kernel] = []
    for kernel_id, kernel in enumerate(workload.kernels):
        probe = kernel.packet(kernel_id, 1)
        placement = scheduler.place(probe)
        num_logical = placement.num_chiplets
        annotations = record_kernel_annotations(kernel, kernel_id,
                                                num_logical)
        kernels.append(dataclasses.replace(
            kernel, explicit_annotations=annotations))
    return Workload(name=f"{workload.name}-inferred",
                    space=workload.space, kernels=kernels,
                    reuse_class=workload.reuse_class,
                    description=f"{workload.description} (inferred hints)")


def compare_annotations(workload: Workload,
                        config: GPUConfig) -> InferenceStats:
    """Measure how close the hand annotations are to the recorded ones."""
    scheduler = WGScheduler(config.num_chiplets)
    kernels = args = mode_matches = 0
    overcoverage = 0
    for kernel_id, kernel in enumerate(workload.kernels):
        probe = kernel.packet(kernel_id, 1)
        placement = scheduler.place(probe)
        num_logical = placement.num_chiplets
        hand = kernel.packet(kernel_id, num_logical).args
        inferred = record_kernel_annotations(kernel, kernel_id, num_logical)
        kernels += 1
        for h, inf in zip(hand, inferred):
            args += 1
            if h.mode is inf.mode:
                mode_matches += 1
            for logical in range(num_logical):
                h_lo, h_hi = h.range_for_logical_chiplet(logical, num_logical)
                i_lo, i_hi = inf.range_for_logical_chiplet(logical,
                                                           num_logical)
                overcoverage += max(0, (h_hi - h_lo) - (i_hi - i_lo))
    return InferenceStats(kernels=kernels, args=args,
                          mode_matches=mode_matches,
                          hand_overcoverage_bytes=overcoverage)
