"""Coherence protocol interface.

A protocol decides (a) what synchronization happens at kernel launch and
completion boundaries and (b) how each demand access is routed through the
hierarchy. The device owns the caches and accounts traffic; protocols call
its helpers.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, List

from repro.cp.local_cp import SyncOp
from repro.cp.packets import KernelPacket
from repro.cp.wg_scheduler import Placement
from repro.memory.cache import BulkResult, WritePolicy
from repro.metrics.stats import SyncCounts

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.gpu.config import GPUConfig
    from repro.gpu.device import Device


class CoherenceProtocol(abc.ABC):
    """Behaviour that differs between Baseline, CPElide, and HMG."""

    #: Registry-visible name.
    name: str = "abstract"
    #: L2 write policy the device should configure.
    l2_policy: WritePolicy = WritePolicy.WRITE_BACK
    #: Whether remotely-homed lines are cached in the requester's L2
    #: (HMG does; Baseline/CPElide forward to the home node instead).
    caches_remote_locally: bool = False

    def __init__(self, config: "GPUConfig", device: "Device") -> None:
        self.config = config
        self.device = device
        #: Per-kernel sync counters, harvested by :meth:`drain_sync_counts`.
        self._sync = SyncCounts()

    @property
    def tracer(self):
        """The device's observability tracepoint sink (never read by
        protocol logic — a pure event/metric outlet)."""
        return self.device.tracer

    # ---- kernel boundary hooks -----------------------------------------

    @abc.abstractmethod
    def on_kernel_launch(self, packet: KernelPacket,
                         placement: Placement) -> List[SyncOp]:
        """Sync ops to execute before the kernel's WGs may dispatch."""

    @abc.abstractmethod
    def on_kernel_complete(self, packet: KernelPacket,
                           placement: Placement) -> List[SyncOp]:
        """Sync ops to execute when the kernel's last WG retires."""

    def on_run_end(self) -> List[SyncOp]:
        """Final device-level release so results are host-visible.

        Every configuration must make the application's final output
        globally visible; CPElide "elides all flushes and invalidations
        except the final ones" (Sec. V-B).
        """
        from repro.cp.local_cp import SyncOpKind
        return [SyncOp(SyncOpKind.RELEASE, c, reason="run-end")
                for c in range(self.config.num_chiplets)]

    # ---- demand access path ---------------------------------------------
    #
    # `access` (the line path) and `access_run` (the run path) are defined
    # here once: they count the L1 traffic and resolve page homes. A
    # protocol decides only where one line goes (`_route`) and, if it can
    # batch, how a same-home segment of a run goes (`_route_segment`).

    def access(self, chiplet: int, line: int, is_write: bool) -> None:
        """Route one L2-visible demand access from ``chiplet``."""
        device = self.device
        device.traffic.l1_request()
        device.traffic.l1_data()
        self._route(chiplet, line, device.home_of(line, chiplet), is_write)

    def access_run(self, chiplet: int, start: int, count: int,
                   do_load: bool, do_store: bool) -> int:
        """Route a run of ``count`` consecutive distinct-line accesses.

        Semantically identical to, per line in ascending order: an
        ``access(chiplet, line, False)`` if ``do_load`` then an
        ``access(chiplet, line, True)`` if ``do_store``. The run's L1
        traffic is counted once, the run is split into same-home
        segments (unplaced pages go to ``chiplet`` in walk order, as the
        per-line walk would place them), and each segment goes to
        :meth:`_route_segment` in ascending order. Returns how many of
        the run's lines are homed at ``chiplet`` (the simulator's
        L1-repeat split needs the local share).
        """
        device = self.device
        ops = 2 * count if do_load and do_store else count
        device.traffic.l1_request(ops)
        device.traffic.l1_data(ops)
        route_segment = self._route_segment
        local = 0
        for seg_start, seg_end, home in device.home_map.home_segments(
                start, start + count, chiplet):
            n = seg_end - seg_start
            if home == chiplet:
                local += n
            route_segment(chiplet, home, seg_start, n, do_load, do_store)
        return local

    @abc.abstractmethod
    def _route(self, chiplet: int, line: int, home: int,
               is_write: bool) -> None:
        """Route one access from ``chiplet`` to ``line``, homed at
        ``home`` (the L1 traffic is already counted)."""

    def _route_segment(self, chiplet: int, home: int, start: int,
                       count: int, do_load: bool, do_store: bool) -> None:
        """Route ``count`` lines from ``start``, all homed at ``home``.

        Protocols override this with bulk cache/L3 operations where they
        can; an override must leave every cache, counter and table
        exactly as :meth:`_route_lines` does
        (``tests/test_protocol_runs.py`` is the referee).
        """
        self._route_lines(chiplet, home, start, count, do_load, do_store)

    def _route_lines(self, chiplet: int, home: int, start: int,
                     count: int, do_load: bool, do_store: bool) -> None:
        """The per-line reference for a segment: each line's load, then
        its store."""
        route = self._route
        if do_load and do_store:
            for line in range(start, start + count):
                route(chiplet, line, home, False)
                route(chiplet, line, home, True)
        else:
            for line in range(start, start + count):
                route(chiplet, line, home, do_store)

    def _absorb_eviction(self, chiplet: int, evicted) -> None:
        """``chiplet``'s L2 displaced ``evicted`` (``None``: nothing) to
        make room for an access or fill: write a dirty victim back."""
        if evicted is not None and evicted.dirty:
            self.device.writeback_line(chiplet, evicted.line)

    def _local_run(self, chiplet: int, start: int, count: int,
                   do_load: bool, do_store: bool) -> BulkResult:
        """A home-local segment as one bulk L2 access.

        Load misses (and, under a write-back L2, store misses) are
        served from the L3 in order. Under a write-through L2 (hmg,
        timestamp) a store miss fetches nothing and every store goes
        through to the L3 and DRAM. Returns the L2's result, whose
        miss events the lease protocols replay into their ledgers.
        """
        device = self.device
        counts = device.counts[chiplet]
        res = device.l2s[chiplet].bulk_access(start=start, count=count,
                                              load=do_load, store=do_store)
        counts.l2_local_hits += res.hits
        counts.l2_local_misses += res.misses
        if do_load and do_store:
            # The store following each load hits the just-filled line.
            counts.l2_local_hits += count
        if do_store and self.l2_policy is WritePolicy.WRITE_THROUGH:
            counts.l2_writethroughs += count
            device.write_through_run(chiplet, start, count,
                                     res if do_load else None)
        elif res.uniform_miss:
            device.fetch_run_from_l3(chiplet, start, count)
        elif res.events:
            device.serve_l2_miss_events(chiplet, chiplet, res.events)
        return res

    # ---- overheads ---------------------------------------------------------

    def launch_overhead_cycles(self, packet: KernelPacket) -> float:
        """Protocol-specific CP-side cycles added at this launch."""
        return 0.0

    def drain_sync_counts(self) -> SyncCounts:
        """Harvest the protocol-internal sync counters of the kernel just
        run (HMG's directory activity, the lease protocols'
        self-invalidations) and start a fresh set."""
        counts = self._sync
        self._sync = SyncCounts()
        return counts

    # ---- memoization support (src/repro/gpu/memo.py) -------------------
    #
    # The memo trace path keys kernel outcomes on pre-state digests and
    # replays recorded transitions on a hit. A protocol exposes its
    # *behavioral* state through `memo_digest`/`memo_snapshot`/
    # `memo_restore`, and through the counter hooks the counters that
    # state leaves out but something reads (CPElide's launch count and
    # its table's peak occupancy and overflows). The defaults model a
    # stateless protocol (Baseline/NoSync/Monolithic keep everything in
    # the device, which the memo layer handles itself).

    def memo_key_flags(self) -> tuple:
        """Protocol-internal facts (beyond digested state) that change a
        kernel's outcome and so must participate in the memo key — e.g.
        a first-launch overhead gate."""
        return ()

    def memo_digest(self) -> bytes:
        """128-bit digest of protocol-internal behavioral state."""
        return b""

    def memo_snapshot(self):
        """Immutable snapshot of the behavioral state, or ``None``."""
        return None

    def memo_restore(self, snapshot) -> None:
        """Restore a :meth:`memo_snapshot` (no-op for stateless)."""

    def memo_counters_begin(self):
        """Token capturing the protocol's counters before a recorded
        kernel (paired with :meth:`memo_counters_end`)."""
        return None

    def memo_counters_end(self, token):
        """The kernel's change to the counters since ``token``."""
        return None

    def memo_counters_apply(self, delta) -> None:
        """Replay a :meth:`memo_counters_end` delta on a memo hit."""


# Historical import location: the registry of
# :class:`~repro.coherence.registry.ProtocolSpec`\ s is the single
# source of truth since v4.0; these are the same callables.
from repro.coherence.registry import (  # noqa: E402, F401
    make_protocol,
    protocol_names,
)
