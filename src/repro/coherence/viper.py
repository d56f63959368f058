"""Baseline VIPER-style chiplet coherence, and the monolithic reference.

The Baseline implements gem5's VIPER GPU coherence protocol extended for
chiplet-based GPUs (Sec. IV-C): remote requests are forwarded to the home
node's L2 (never cached locally), remote stores write through to the
shared L3, local stores write back into the local L2, and implicit
synchronization is fully conservative — every chiplet's L2 is flushed at
every kernel completion and invalidated at every kernel launch.

The monolithic protocol models the infeasible-to-build single-die GPU of
Fig. 2: its one big L2 is the shared ordering point for all CUs, so
kernel-boundary synchronization stops at the L1s and inter-kernel L2 reuse
is never destroyed.
"""

from __future__ import annotations

from typing import List

from repro.coherence.base import CoherenceProtocol
from repro.cp.local_cp import SyncOp, SyncOpKind
from repro.cp.packets import KernelPacket
from repro.cp.wg_scheduler import Placement
from repro.memory.cache import BulkResult


class BaselineProtocol(CoherenceProtocol):
    """Conservative chiplet-extended VIPER (the paper's Baseline)."""

    name = "baseline"

    # ---- kernel boundaries ------------------------------------------------

    def on_kernel_launch(self, packet: KernelPacket,
                         placement: Placement) -> List[SyncOp]:
        """Implicit acquire: invalidate every chiplet's L2 before launch."""
        return [SyncOp(SyncOpKind.ACQUIRE, c, reason="implicit-acquire")
                for c in range(self.config.num_chiplets)]

    def on_kernel_complete(self, packet: KernelPacket,
                           placement: Placement) -> List[SyncOp]:
        """Implicit release: flush every chiplet's dirty L2 data."""
        return [SyncOp(SyncOpKind.RELEASE, c, reason="implicit-release")
                for c in range(self.config.num_chiplets)]

    # ---- demand access path --------------------------------------------------

    def _route(self, chiplet: int, line: int, home: int,
               is_write: bool) -> None:
        """Forward-to-home routing with WB-local / WT-remote stores."""
        device = self.device
        counts = device.counts[chiplet]
        if home == chiplet:
            hit, evicted = device.l2s[chiplet].access(line, is_write)
            if hit:
                counts.l2_local_hits += 1
            else:
                counts.l2_local_misses += 1
                device.fetch_from_l3(chiplet, line)
            self._absorb_eviction(chiplet, evicted)
            return
        # Remote request: forwarded to the home node across the
        # inter-chiplet links; remote data is never cached locally.
        device.traffic.remote_request()
        device.traffic.remote_data()
        home_l2 = device.l2s[home]
        if is_write:
            # Remote stores write through to the shared L3 and invalidate
            # the home L2's (now stale) copy, so later readers forwarded
            # to the home node miss there and fetch the fresh value from
            # the L3. No chiplet-local dirty copy ever exists on the
            # writer's side.
            present, dirty = home_l2.invalidate_line(line)
            if present:
                counts.l2_remote_hits += 1
                if dirty:
                    # Same-kernel write after a home-local write is a race
                    # under SC-for-HRF; write the old data back anyway so
                    # the model never silently drops dirty lines.
                    device.writeback_line(home, line)
            else:
                counts.l2_remote_misses += 1
            counts.l2_writethroughs += 1
            device.l3_write(chiplet, line)
            return
        hit, evicted = home_l2.access(line, is_write=False)
        if hit:
            counts.l2_remote_hits += 1
        else:
            counts.l2_remote_misses += 1
            device.fetch_from_l3(chiplet, line)
        self._absorb_eviction(home, evicted)

    def _route_segment(self, chiplet: int, home: int, start: int,
                       count: int, do_load: bool, do_store: bool) -> None:
        """Bulk cache/L3 operations per same-home segment; only the
        order-insensitive bookkeeping is folded."""
        if home == chiplet:
            self._local_run(chiplet, start, count, do_load, do_store)
        elif do_load and do_store:
            # A remote read-modify-write interleaves a home-L2 read
            # with an invalidation of the same line; replay per line.
            self._route_lines(chiplet, home, start, count, do_load, do_store)
        elif do_store:
            self._remote_store_run(chiplet, home, start, count)
        else:
            self._remote_load_run(chiplet, home, start, count)

    def _remote_load_run(self, chiplet: int, home: int, start: int,
                         count: int) -> BulkResult:
        """Remote read segment: bulk access at the home L2, requester-
        attributed counts, home-attributed victim writebacks. Returns
        the home L2's result."""
        device = self.device
        counts = device.counts[chiplet]
        device.traffic.remote_request(count)
        device.traffic.remote_data(count)
        res = device.l2s[home].bulk_access(start=start, count=count,
                                           load=True, store=False)
        counts.l2_remote_hits += res.hits
        counts.l2_remote_misses += res.misses
        if res.uniform_miss:
            device.fetch_run_from_l3(chiplet, start, count)
        elif res.events:
            device.serve_l2_miss_events(chiplet, home, res.events)
        return res

    def _remote_store_run(self, chiplet: int, home: int, start: int,
                          count: int) -> None:
        """Remote store segment: bulk invalidation at the home L2 plus a
        bulk L3 write-through; a dirty home copy (the SC-for-HRF race)
        forces the exact per-line L3 op order instead."""
        device = self.device
        counts = device.counts[chiplet]
        device.traffic.remote_request(count)
        device.traffic.remote_data(count)
        inv = device.l2s[home].bulk_invalidate(start=start, count=count)
        dropped, dirty = inv.dropped, inv.lines
        counts.l2_remote_hits += dropped
        counts.l2_remote_misses += count - dropped
        counts.l2_writethroughs += count
        if dirty:
            dirty_set = set(dirty)
            for line in range(start, start + count):
                if line in dirty_set:
                    device.writeback_line(home, line)
                device.l3_write(chiplet, line)
        else:
            device.l3_write_run(chiplet, start, count)


class NoSyncProtocol(BaselineProtocol):
    """Baseline data path with implicit synchronization disabled.

    Not a buildable design — an *upper bound* on inter-kernel L2 reuse
    used to compute Table II's reuse classification ("miss rate reduction
    from inter-kernel reuse with no flush/invalidation overhead",
    Sec. IV-D).
    """

    name = "nosync"

    def on_kernel_launch(self, packet: KernelPacket,
                         placement: Placement) -> List[SyncOp]:
        """No implicit acquire."""
        return []

    def on_kernel_complete(self, packet: KernelPacket,
                           placement: Placement) -> List[SyncOp]:
        """No implicit release."""
        return []


class MonolithicProtocol(BaselineProtocol):
    """Single-die GPU: one L2 shared by all CUs (Fig. 2 reference).

    Requires a 1-chiplet device (see
    :func:`repro.gpu.config.monolithic_equivalent`). Because the L2 is the
    shared point, implicit synchronization never touches it.
    """

    name = "monolithic"

    def __init__(self, config, device) -> None:
        if config.num_chiplets != 1:
            raise ValueError(
                "MonolithicProtocol requires a 1-chiplet device; build the "
                "config with monolithic_equivalent()")
        super().__init__(config, device)

    def on_kernel_launch(self, packet: KernelPacket,
                         placement: Placement) -> List[SyncOp]:
        """Only the L1s are invalidated (not modeled at the L2 level)."""
        return []

    def on_kernel_complete(self, packet: KernelPacket,
                           placement: Placement) -> List[SyncOp]:
        """Writes complete at the shared L2; no flush needed."""
        return []
