"""First-order kernel timing.

Per kernel, per chiplet, the model takes the classic throughput-processor
form ``time = max(compute, memory)`` where the memory term is the
latency-weighted access sum divided by the chiplet's memory-level
parallelism, then applies device-wide bandwidth floors (DRAM, inter-chiplet
links, L2-L3 network) and adds the serialized synchronization costs at the
kernel boundary (flush/invalidate service time plus the CP-side critical
path). Kernels in a stream execute back-to-back; the GPU's deep kernel
queue hides dispatch latency after the first kernel.

This reproduces the paper's *relative* results: Baseline pays boundary
flush/invalidate service plus the refetch latency/bandwidth of lost L2
reuse; CPElide pays neither when elision applies; HMG trades boundary
costs for write-through and invalidation traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.interconnect.noc import TrafficMeter
from repro.metrics.stats import AccessCounts
from repro.timing.latency import LatencyTable

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.cp.wg_scheduler import Placement
    from repro.gpu.config import GPUConfig


@dataclass(frozen=True)
class KernelTiming:
    """Cycle breakdown of one kernel."""

    total_cycles: float
    compute_cycles: float
    memory_cycles: float
    bandwidth_cycles: float
    sync_cycles: float


class TimingModel:
    """Converts counters into kernel durations."""

    #: Fixed boundary drain cost charged once whenever any L2 sync op
    #: executes (pipeline drain + launch-enable round trip).
    SYNC_FIXED_CYCLES = 100.0
    #: Per-line cost of a bulk invalidate. GPU caches flash-invalidate
    #: (a one-shot valid-bit clear), so dropping lines is O(1); only the
    #: base cost below is charged.
    INVALIDATE_CYCLES_PER_LINE = 0.0
    #: Base cost of a bulk invalidate tag walk.
    INVALIDATE_BASE_CYCLES = 100.0

    def __init__(self, config: "GPUConfig") -> None:
        self.config = config
        self.latency = LatencyTable.from_config(config)

    # ------------------------------------------------------------------

    def kernel_time(self, placement: "Placement",
                    per_chiplet_counts: Sequence[AccessCounts],
                    traffic: TrafficMeter,
                    compute_cycles: float,
                    sync_lines_flushed: int,
                    sync_lines_invalidated: int,
                    had_sync_ops: bool,
                    cp_overhead_cycles: float,
                    mlp_factor: float = 1.0) -> KernelTiming:
        """Compute one kernel's duration.

        Args:
            placement: Where the kernel's WGs ran.
            per_chiplet_counts: Requester-attributed access counts.
            traffic: The kernel's flit meters (for bandwidth floors).
            compute_cycles: Total CU-cycles of arithmetic across the whole
                kernel (the workload model supplies this).
            sync_lines_flushed / sync_lines_invalidated: Line volumes the
                boundary sync ops moved/dropped.
            had_sync_ops: Whether any L2 sync op executed at this boundary.
            cp_overhead_cycles: CP-side critical-path cycles (global CP).
            mlp_factor: Occupancy-derived scaling of memory-level
                parallelism (fewer resident wavefronts hide less latency;
                see :mod:`repro.cp.dispatcher`).
        """
        if not 0.0 < mlp_factor <= 1.0:
            raise ValueError(f"mlp_factor must be in (0, 1], got {mlp_factor}")
        chiplet_cycles = 0.0
        compute_max = 0.0
        memory_max = 0.0
        for chiplet in placement.chiplets:
            share = placement.share_of(chiplet)
            compute = compute_cycles * share / self.config.cus_per_chiplet
            memory = self._memory_cycles(per_chiplet_counts[chiplet],
                                         mlp_factor)
            chiplet_cycles = max(chiplet_cycles, max(compute, memory))
            compute_max = max(compute_max, compute)
            memory_max = max(memory_max, memory)

        bandwidth = self._bandwidth_floor(per_chiplet_counts, traffic)
        body = max(chiplet_cycles, bandwidth)
        sync = self.sync_cycles(sync_lines_flushed, sync_lines_invalidated,
                                had_sync_ops)
        total = body + sync + cp_overhead_cycles
        return KernelTiming(total_cycles=total,
                            compute_cycles=compute_max,
                            memory_cycles=memory_max,
                            bandwidth_cycles=bandwidth,
                            sync_cycles=sync + cp_overhead_cycles)

    # ------------------------------------------------------------------

    def _memory_cycles(self, counts: AccessCounts,
                       mlp_factor: float = 1.0) -> float:
        """Per-chiplet memory time: max(latency-bound, L2-bandwidth-bound).

        GPUs hide most access latency behind massive memory-level
        parallelism, so the data-movement (bandwidth) term usually binds;
        the latency term matters when parallelism is insufficient or
        accesses are mostly remote.
        """
        l2_bytes = ((counts.l2_accesses + counts.l2_writethroughs)
                    * self.config.line_size)
        l2_bw_cycles = self.config.cycles(
            l2_bytes / self.config.l2_bandwidth_per_chiplet)
        return max(self._latency_cycles(counts, mlp_factor), l2_bw_cycles)

    def _latency_cycles(self, counts: AccessCounts,
                        mlp_factor: float = 1.0) -> float:
        """Latency-weighted access sum / memory-level parallelism."""
        lat = self.latency
        local_m = counts.l2_local_misses
        remote_m = counts.l2_remote_misses
        total_m = local_m + remote_m
        if total_m:
            frac_remote = remote_m / total_m
        else:
            frac_remote = 0.0
        l3_hit_latency = (lat.l3_local * (1.0 - frac_remote)
                          + lat.l3_remote * frac_remote)
        dram_latency = lat.dram + frac_remote * (lat.l2_remote_hit
                                                 - lat.l2_local_hit)
        weighted = (
            counts.l1_hits * lat.l1_hit
            + counts.lds_accesses * lat.lds
            + counts.l2_local_hits * lat.l2_local_hit
            + counts.l2_remote_hits * lat.l2_remote_hit
            + counts.l3_hits * l3_hit_latency
            + counts.l3_misses * dram_latency
            + counts.l2_writethroughs * self.config.writethrough_penalty_cycles
            + counts.coherence_stalls * lat.l2_remote_hit
        )
        return weighted / (self.config.chiplet_mlp * mlp_factor)

    def _bandwidth_floor(self, per_chiplet_counts: Sequence[AccessCounts],
                         traffic: TrafficMeter) -> float:
        """Device-wide bandwidth-bound time floors, in cycles."""
        cfg = self.config
        dram_accesses = sum(c.dram_accesses for c in per_chiplet_counts)
        # Write-through stores that reached DRAM commit uncoalesced
        # partial lines (read-modify-write at the HBM).
        wt_to_dram = sum(min(c.l2_writethroughs, c.dram_writes)
                         for c in per_chiplet_counts)
        dram_bytes = (dram_accesses
                      + wt_to_dram * (cfg.wt_dram_amplification - 1.0)
                      ) * cfg.line_size
        dram_bw = cfg.dram_bandwidth_per_stack * cfg.num_chiplets
        dram_s = dram_bytes / dram_bw
        remote_s = traffic.remote_bytes / cfg.inter_chiplet_bandwidth
        # Deflate header flits: a line transfer is 1 header + 2 data flits,
        # so payload bytes are ~2/3 of flit bytes.
        l3_bytes = traffic.l2_l3 * traffic.params.flit_bytes * 2 / 3
        l3_s = l3_bytes / cfg.l3_bandwidth_bytes_per_sec
        return cfg.cycles(max(dram_s, remote_s, l3_s))

    def sync_cycles(self, lines_flushed: int, lines_invalidated: int,
                    had_sync_ops: bool) -> float:
        """Serialized boundary-synchronization service time.

        A flush streams dirty lines to the L3 (bandwidth-bound plus one
        L3 round trip); an invalidate is a tag walk. Nothing is charged
        when no op executed (CPElide's elided boundaries are free).
        """
        if not had_sync_ops:
            return 0.0
        fixed_scale = self.config.effective_overhead_scale
        cycles = self.SYNC_FIXED_CYCLES * fixed_scale
        if lines_flushed:
            flush_bytes = lines_flushed * self.config.line_size
            flush_s = flush_bytes / self.config.flush_bandwidth_bytes_per_sec
            cycles += (self.config.l3_latency * fixed_scale
                       + self.config.cycles(flush_s))
        if lines_invalidated:
            cycles += (self.INVALIDATE_BASE_CYCLES * fixed_scale
                       + self.INVALIDATE_CYCLES_PER_LINE * lines_invalidated)
        return cycles
