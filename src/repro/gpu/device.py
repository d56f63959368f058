"""The MCM-GPU device: chiplets, shared L3, home map, meters.

The device owns all hardware state and the per-kernel measurement context
(one :class:`~repro.interconnect.noc.TrafficMeter` plus per-chiplet
:class:`~repro.metrics.stats.AccessCounts`). Coherence protocols route
accesses through the helpers here; the helpers do all traffic/energy-
relevant accounting so protocols stay declarative. HBM holds no state
of its own: each L3 miss, dirty L3 victim and write-through to memory
is counted once, in the current kernel's ``dram_reads``/``dram_writes``
of the chiplet it is charged to.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.interconnect.crossbar import CPCrossbar
from repro.interconnect.noc import TrafficMeter
from repro.memory.address import HomeMap
from repro.memory.cache import BulkResult, SetAssocCache, WritePolicy
from repro.memory.l1 import L1Filter
from repro.memory.translation import AddressTranslator
from repro.metrics.stats import AccessCounts
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.gpu.chiplet import Chiplet
from repro.cp.local_cp import LocalCP

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.gpu.config import GPUConfig


class Device:
    """All hardware state of one simulated MCM-GPU."""

    def __init__(self, config: "GPUConfig",
                 l2_policy: WritePolicy = WritePolicy.WRITE_BACK) -> None:
        self.config = config
        self.chiplets: List[Chiplet] = [
            Chiplet(i, config, l2_policy)
            for i in range(config.num_chiplets)
        ]
        #: Per-chiplet L2 caches, in chiplet order.
        self.l2s: List[SetAssocCache] = [c.l2 for c in self.chiplets]
        self.l3 = SetAssocCache(
            size_bytes=config.scaled_l3_size,
            assoc=config.l3_assoc,
            line_size=config.line_size,
            policy=WritePolicy.WRITE_BACK,
            name="L3",
        )
        self.home_map = HomeMap(config.num_chiplets,
                                lines_per_page=config.scaled_page_lines)
        self.l1_filter = L1Filter(config.l1_repeat_hit_rate)
        self.cp_xbar = CPCrossbar(config.cp_xbar_unicast_cycles,
                                  config.cp_xbar_broadcast_cycles)
        self.local_cps: List[LocalCP] = [
            LocalCP(i, self) for i in range(config.num_chiplets)
        ]
        # Virtual-to-physical translation for the Sec. VI range-based
        # flush extension (software hints are virtual, L2s physical).
        self.translator = AddressTranslator()
        # The observability tracepoint sink. The simulator installs its
        # tracer here before building the protocol so every component
        # (local CPs, coherence table, directories) sees the same one;
        # the default NULL_TRACER no-ops with ``enabled=False``.
        self.tracer: Tracer = NULL_TRACER
        # Per-kernel measurement context; the simulator swaps these.
        self.traffic = TrafficMeter()
        self.counts: List[AccessCounts] = [
            AccessCounts() for _ in range(config.num_chiplets)
        ]

    # ------------------------------------------------------------------
    # Measurement context
    # ------------------------------------------------------------------

    def begin_kernel(self) -> None:
        """Reset the per-kernel meters (the simulator harvests them first)."""
        self.traffic = TrafficMeter()
        self.counts = [AccessCounts() for _ in range(self.config.num_chiplets)]

    def merged_counts(self) -> AccessCounts:
        """Device-wide access counts for the current kernel."""
        total = AccessCounts()
        for c in self.counts:
            total.merge(c)
        return total

    # ------------------------------------------------------------------
    # Address / placement helpers
    # ------------------------------------------------------------------

    def home_of(self, line: int, toucher: int) -> int:
        """Home chiplet of ``line`` under first-touch placement."""
        return self.home_map.home_of_line(line, toucher)

    def set_l2_policy(self, policy: WritePolicy) -> None:
        """Switch every L2's write policy (protocols call this once,
        before any accesses)."""
        for chiplet in self.chiplets:
            if chiplet.l2.resident_lines:
                raise RuntimeError("cannot change L2 policy after accesses")
            chiplet.l2.policy = policy

    # ------------------------------------------------------------------
    # L3 / DRAM paths (all traffic accounting lives here)
    # ------------------------------------------------------------------

    def fetch_from_l3(self, requester: int, line: int) -> None:
        """Serve an L2 refill from the L3 (falling through to DRAM)."""
        counts = self.counts[requester]
        self.traffic.l2_request()
        self.traffic.l2_data()
        hit, evicted = self.l3.access(line, is_write=False)
        if hit:
            counts.l3_hits += 1
        else:
            counts.l3_misses += 1
            counts.dram_reads += 1
        self._absorb_l3_eviction(requester, evicted)

    def l3_write(self, requester: int, line: int,
                 through_to_dram: bool = False) -> None:
        """Write a line into the L3 (write-through from an L2).

        ``through_to_dram`` additionally commits the write to memory
        (HMG sends writes through to memory, Sec. IV-C).
        """
        counts = self.counts[requester]
        self.traffic.l2_data()
        _, evicted = self.l3.access(line, is_write=not through_to_dram)
        if through_to_dram:
            counts.dram_writes += 1
        self._absorb_l3_eviction(requester, evicted)

    def writeback_line(self, chiplet: int, line: int) -> None:
        """Absorb one dirty L2 victim into the L3."""
        self.traffic.l2_data()
        evicted = self.l3.fill(line, dirty=True)
        self._absorb_l3_eviction(chiplet, evicted)

    def _absorb_l3_eviction(self, requester: int, evicted) -> None:
        if evicted is not None and evicted.dirty:
            self.counts[requester].dram_writes += 1

    # ------------------------------------------------------------------
    # Bulk (run) L3 / DRAM paths
    #
    # Bit-exact batched forms of the per-line helpers above, used by the
    # protocols' bulk `_route_segment` hooks. Each replays the same L3
    # operations in the same order a per-line sweep would issue them;
    # only the Python-level looping and traffic-counter arithmetic are
    # folded.
    # ------------------------------------------------------------------

    def serve_l2_miss_events(self, requester: int, wb_chiplet: int,
                             events) -> None:
        """Serve an ordered L2 miss/victim event stream from the L3.

        ``events`` is a :attr:`~repro.memory.cache.BulkResult.events`
        list: ``(line, victim_line, victim_dirty)`` per missing line,
        ascending.
        For each event this performs exactly what the per-line path does:
        a :meth:`fetch_from_l3` for the missing line (attributed to
        ``requester``) followed, if the victim was dirty, by a
        :meth:`writeback_line` attributed to ``wb_chiplet`` (the chiplet
        whose L2 evicted — the requester for local accesses, the home
        node for remote reads).
        """
        counts = self.counts[requester]
        res = self.l3.bulk_serve(events=events)
        missed = res.lines
        counts.l3_hits += res.hits
        counts.l3_misses += len(missed)
        counts.dram_reads += len(missed)
        counts.dram_writes += len(res.evictions)
        self.counts[wb_chiplet].dram_writes += len(res.fill_evictions)
        self.traffic.l2_request(len(events))
        self.traffic.l2_data(len(events) + res.writebacks)

    def fetch_run_from_l3(self, requester: int, start: int,
                          count: int) -> None:
        """Serve ``count`` consecutive L2 refills from the L3 in bulk.

        Only valid when the caller knows every line in the run missed the
        L2 with no victim writebacks interleaved (a ``uniform_miss`` run
        result) — then the L3 sees the plain ascending run and can itself
        be accessed in bulk; below the L3 only order-free DRAM counts
        remain.
        """
        counts = self.counts[requester]
        self.traffic.l2_request(count)
        self.traffic.l2_data(count)
        res = self.l3.bulk_access(start=start, count=count,
                                  load=True, store=False)
        counts.l3_hits += res.hits
        counts.l3_misses += res.misses
        counts.dram_reads += res.misses
        if res.events:
            self._absorb_l3_victims(requester, res.events)

    def l3_write_run(self, requester: int, start: int, count: int) -> None:
        """Bulk form of :meth:`l3_write` (write-through, not to DRAM)
        over an ascending run of distinct lines."""
        self.traffic.l2_data(count)
        res = self.l3.bulk_access(start=start, count=count,
                                  load=False, store=True)
        if res.events:
            self._absorb_l3_victims(requester, res.events)

    def write_through_run(self, requester: int, start: int, count: int,
                          loads: Optional[BulkResult] = None) -> None:
        """The L3 side of a home-local write-through store segment.

        Per line in ascending order, the per-line path issues a
        :meth:`fetch_from_l3` if the line's load missed the requester's
        L2 (``loads`` is that L2's load+store result; ``None`` for a
        store-only segment), then an :meth:`l3_write` through to DRAM.
        Both are L3 reads and the second hits the line the first just
        placed, so one ascending L3 read sweep leaves the same L3 state,
        and the per-kernel counts are those of the fetches plus one DRAM
        write per line.
        """
        counts = self.counts[requester]
        res = self.l3.bulk_access(start=start, count=count, load=True,
                                  store=False)
        if loads is None or not loads.misses:
            fetched = fetched_misses = 0
        elif loads.uniform_miss:
            fetched, fetched_misses = count, res.misses
        else:
            fetched = len(loads.events)
            if res.uniform_miss:
                fetched_misses = fetched
            elif res.misses:
                l3_missed = {line for line, _, _ in res.events}
                fetched_misses = sum(line in l3_missed
                                     for line, _, _ in loads.events)
            else:
                fetched_misses = 0
        if fetched:
            counts.l3_hits += fetched - fetched_misses
            counts.l3_misses += fetched_misses
            counts.dram_reads += fetched_misses
            self.traffic.l2_request(fetched)
        self.traffic.l2_data(fetched + count)
        counts.dram_writes += count
        if res.events:
            self._absorb_l3_victims(requester, res.events)

    def _absorb_l3_victims(self, requester: int, events) -> None:
        """:meth:`_absorb_l3_eviction` over an L3 ``bulk_access`` miss
        stream: each dirty victim is one DRAM write."""
        victims = [victim for _, victim, victim_dirty in events
                   if victim_dirty]
        if victims:
            self.counts[requester].dram_writes += len(victims)

    # ------------------------------------------------------------------
    # Whole-cache synchronization (implicit acquire / release)
    # ------------------------------------------------------------------

    def flush_l2(self, chiplet: int) -> int:
        """Implicit release: write back all of ``chiplet``'s dirty L2 lines
        to the L3, retaining clean copies. Returns lines flushed."""
        flushed = self.chiplets[chiplet].l2.flush_dirty()
        self._writeback_lines(chiplet, flushed)
        return len(flushed)

    def invalidate_l2(self, chiplet: int) -> int:
        """Implicit acquire: drop every line in ``chiplet``'s L2. Dirty
        lines (if the release was skipped) are written back first for
        safety. Returns lines invalidated."""
        dropped, dirty = self.chiplets[chiplet].l2.invalidate_all()
        self._writeback_lines(chiplet, dirty)
        return dropped

    def _writeback_lines(self, chiplet: int, lines: Sequence[int]) -> None:
        """Absorb a batch of dirty L2 victims into the L3 (same fill
        order as per-line :meth:`writeback_line` calls; the traffic
        counter is bumped once in aggregate)."""
        if not lines:
            return
        fills = self.l3.bulk_fill(lines=lines, dirty=True)
        dirty_victims = [ev.line for ev in fills.evictions if ev.dirty]
        if dirty_victims:
            self.counts[chiplet].dram_writes += len(dirty_victims)
        self.traffic.l2_data(len(lines))

    def flush_l2_ranges(self, chiplet: int,
                        ranges: Sequence[Tuple[int, int]]) -> int:
        """Range-restricted release (the Sec. VI hardware extension).

        The virtual ranges are broken into page-wise requests and
        translated (Sec. VI), then each page's span is flushed at the L2
        in one bulk operation.
        """
        l2 = self.chiplets[chiplet].l2
        flushed = 0
        for span in self.translator.translate_ranges(ranges):
            lines = l2.bulk_flush(start=span.first_line,
                                  count=span.last_line - span.first_line).lines
            self._writeback_lines(chiplet, lines)
            flushed += len(lines)
        return flushed

    def invalidate_l2_ranges(self, chiplet: int,
                             ranges: Sequence[Tuple[int, int]]) -> int:
        """Range-restricted acquire (the Sec. VI hardware extension)."""
        l2 = self.chiplets[chiplet].l2
        invalidated = 0
        for span in self.translator.translate_ranges(ranges):
            res = l2.bulk_invalidate(
                start=span.first_line,
                count=span.last_line - span.first_line)
            self._writeback_lines(chiplet, res.lines)
            invalidated += res.dropped
        return invalidated
