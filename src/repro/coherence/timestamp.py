"""Timestamp/lease coherence (HALCONE-style), plus the CPElide hybrid.

HALCONE ("A Hardware-Level Timestamp-based Cache Coherence Scheme for
Multi-GPU systems", PAPERS.md) replaces acquire-side bulk invalidation
with *self-invalidation*: every cached line carries a lease, and a read
whose lease has expired drops the copy and refetches instead of trusting
it. No invalidation round trips, no sharer directory — the cost is the
refetch traffic of expired-but-actually-fresh copies, which the lease
length (``GPUConfig.lease_kernels``, in kernel epochs) trades against
staleness exposure.

Two protocols live here, both on :class:`LeaseProtocol`, which lays
the ledger over a data path without changing it:

* :class:`TimestampProtocol` (``timestamp``): write-through L2s that
  cache remote fetches locally (like HMG) but with **no directory** —
  leases bound how long any copy may be trusted, and every write stamps
  a global per-line write-timestamp so a copy that predates the latest
  write self-invalidates *exactly* (a ``stale`` refetch) even before its
  lease runs out. Lease expiry is therefore a pure performance knob in
  this model; the stamp check is what keeps reads correct.
* :class:`CPElideTimestampProtocol` (``cpelide-ts``): keeps CPElide's
  table-driven *release* elision and its forward-to-home write-back data
  path (each access is Baseline's ``_route`` between a lease check on
  the home copy and the ledger update), but drops every acquire-side
  invalidation the elision engine would issue — cached home copies
  self-invalidate on lease expiry instead. The Chiplet Coherence Table
  still tracks dirty data and drives releases exactly as in
  ``cpelide``.

Time base: the :class:`LeaseLedger` clock counts *kernel epochs* and
ticks once per live :meth:`on_kernel_launch`. All behavior (expiry,
staleness, memo digests) is a function of *ages* relative to that clock,
never of absolute epochs — that is what lets the memo trace path share
recorded kernel transitions across launch indices and lets a
digest-unchanged memo hit leave the ledger untouched (no tick, no
restore) while staying bit-identical to the line and run paths.
"""

from __future__ import annotations

import abc
import marshal
from hashlib import blake2b
from typing import Callable, Dict, List, Optional

from repro.coherence.base import CoherenceProtocol
from repro.coherence.cpelide import CPElideProtocol
from repro.cp.local_cp import SyncOp, SyncOpKind
from repro.cp.packets import KernelPacket
from repro.cp.wg_scheduler import Placement
from repro.memory.cache import BulkResult, WritePolicy

__all__ = ["CPElideTimestampProtocol", "LeaseLedger", "LeaseProtocol",
           "TimestampProtocol"]


class LeaseLedger:
    """Per-chiplet lease bookkeeping plus the global write-timestamp map.

    ``fills[c][line]`` is the epoch at which chiplet ``c``'s cached copy
    of ``line`` was filled or last renewed; ``stamps[line]`` is the epoch
    of the line's latest write anywhere on the device. A copy is invalid
    when its *age* (``clock - fill``) has reached the lease, or — checked
    only for un-expired copies — when a write stamped the line after the
    copy's fill.

    The check order (age first, stamp second) is load-bearing: canonical
    snapshots cap ages at the lease and prune stamps older than it, so an
    age-expired copy must report ``expiry`` no matter what the stamp map
    says, or a memo-restored ledger could flip a counter reason.
    """

    def __init__(self, num_chiplets: int, lease: int) -> None:
        self.lease = lease
        self.clock = 0
        self.fills: List[Dict[int, int]] = [{} for _ in range(num_chiplets)]
        self.stamps: Dict[int, int] = {}
        #: :meth:`canonical` of the current state, kept from the last
        #: build until the next mutation (the memo path digests a
        #: recorded kernel's post-state, then snapshots the same state).
        self._canonical: Optional[tuple] = None

    # ---- mutation -------------------------------------------------------

    def tick(self) -> None:
        """Advance one kernel epoch (live launches only — never on a
        memo replay, where state jumps via :meth:`restore` instead)."""
        self.clock += 1
        self._canonical = None

    def grant(self, chiplet: int, line: int) -> None:
        """Lease (or renew) ``chiplet``'s copy of ``line`` at the
        current epoch."""
        self.fills[chiplet][line] = self.clock
        self._canonical = None

    def drop(self, chiplet: int, line: int) -> None:
        """Forget ``chiplet``'s lease on ``line`` (eviction or
        self-invalidation)."""
        self.fills[chiplet].pop(line, None)
        self._canonical = None

    def stamp_write(self, line: int) -> None:
        """Record a write to ``line`` at the current epoch."""
        self.stamps[line] = self.clock
        self._canonical = None

    def renew_run(self, chiplet: int, start: int, count: int) -> None:
        """Bulk :meth:`grant` for a run of consecutive lines."""
        fills = self.fills[chiplet]
        clock = self.clock
        for line in range(start, start + count):
            fills[line] = clock
        self._canonical = None

    def replay_run(self, chiplet: int, start: int, count: int, events,
                   stores: bool) -> None:
        """Replay the ledger side of one bulk L2 access by ``chiplet``.

        Per line of ``[start, start + count)`` in ascending order, as
        the per-line path does: grant the line, stamp it if ``stores``,
        and drop the lease of the victim its miss evicted. ``events`` is
        the access's :attr:`~repro.memory.cache.BulkResult.events`
        (``None`` when every line missed without an eviction). The
        order matters: a victim may be a later line of the same run,
        which its own access then leases again.
        """
        fills = self.fills[chiplet]
        clock = self.clock
        pos = start
        for line, victim, _dirty in events or ():
            if victim is not None:
                for granted in range(pos, line + 1):
                    fills[granted] = clock
                pos = line + 1
                fills.pop(victim, None)
        for granted in range(pos, start + count):
            fills[granted] = clock
        if stores:
            stamps = self.stamps
            for line in range(start, start + count):
                stamps[line] = clock
        self._canonical = None

    # ---- validity -------------------------------------------------------

    def invalid_reason(self, chiplet: int, line: int) -> Optional[str]:
        """Why ``chiplet``'s copy of ``line`` must self-invalidate:
        ``"expiry"``, ``"stale"``, or ``None`` (valid / not leased)."""
        fill = self.fills[chiplet].get(line)
        if fill is None:
            return None
        if self.clock - fill >= self.lease:
            return "expiry"
        if fill < self.stamps.get(line, fill):
            return "stale"
        return None

    def run_valid(self, chiplet: int, start: int, count: int) -> bool:
        """Whether every line of the run holds a currently-valid lease."""
        fills = self.fills[chiplet]
        stamps = self.stamps
        clock = self.clock
        lease = self.lease
        for line in range(start, start + count):
            fill = fills.get(line)
            if (fill is None or clock - fill >= lease
                    or fill < stamps.get(line, fill)):
                return False
        return True

    def run_clear(self, chiplet: int, start: int, count: int) -> bool:
        """Whether no line of the run holds an expired or stale lease.

        Unleased lines pass (they miss and are granted), so a run that
        passes never self-invalidates under its own accesses: a grant
        makes a line valid, and only the line's own eviction changes it
        again. A zero lease expires even a fresh grant, so then no run
        passes.
        """
        if self.lease <= 0:
            return False
        fills = self.fills[chiplet]
        stamps = self.stamps
        oldest = self.clock - self.lease
        for line in range(start, start + count):
            fill = fills.get(line)
            if fill is not None and (fill <= oldest
                                     or fill < stamps.get(line, fill)):
                return False
        return True

    # ---- memoization support --------------------------------------------

    def canonical(self) -> tuple:
        """Age-relative canonical form: per-chiplet sorted
        ``(line, age)`` with ages capped at the lease (all expired copies
        behave identically), and sorted ``(line, stamp_age)`` for stamps
        younger than the lease (an older stamp is dead — any copy it
        could invalidate is already age-expired). Translation-invariant,
        so states at different absolute clocks compare equal whenever
        they behave identically — the memo path's cross-launch-index
        sharing and the oracle's path-independent fingerprints both rely
        on this."""
        if self._canonical is not None:
            return self._canonical
        clock = self.clock
        lease = self.lease
        fills = tuple(
            tuple(sorted((line, min(clock - fill, lease))
                         for line, fill in per_chiplet.items()))
            for per_chiplet in self.fills)
        stamps = tuple(sorted((line, clock - stamp)
                              for line, stamp in self.stamps.items()
                              if clock - stamp < lease))
        self._canonical = (fills, stamps)
        return self._canonical

    def digest(self) -> bytes:
        """128-bit digest of :meth:`canonical` (marshal format 2, as
        :meth:`~repro.memory.cache.SetAssocCache.memo_digest` hashes:
        the bytes depend on the values alone)."""
        return blake2b(marshal.dumps(self.canonical(), 2),
                       digest_size=16).digest()

    def restore(self, snapshot: tuple) -> None:
        """Rehydrate a :meth:`canonical` snapshot at the current clock
        (ages become absolute epochs again; epochs may go negative early
        in a run, which is harmless — only ages are ever compared)."""
        fills_snap, stamps_snap = snapshot
        clock = self.clock
        self.fills = [{line: clock - age for line, age in per_chiplet}
                      for per_chiplet in fills_snap]
        self.stamps = {line: clock - age for line, age in stamps_snap}
        self._canonical = None


class LeaseProtocol(CoherenceProtocol):
    """A :class:`LeaseLedger` laid over a protocol's data path.

    Every line a chiplet's L2 holds carries a lease in ``leases``. A
    remote line's leased copy sits in the requester's L2 when
    ``caches_remote_locally`` is set (``timestamp``) and at its home
    otherwise (``cpelide-ts``). A subclass writes ``_route``, keeping
    the ledger in step with every fill, drop and store, and
    :meth:`_serve_resident_remote_loads`; the segment batching, the
    self-invalidation, the victim's lease drop and the memo hooks are
    shared here.
    """

    def __init__(self, config, device) -> None:
        super().__init__(config, device)
        self.leases = LeaseLedger(config.num_chiplets, config.lease_kernels)
        #: Sanitizer hook: called as ``observer(chiplet, line)`` for
        #: every load that ``chiplet``'s L2 serves under a lease, before
        #: the lease is renewed (never read by protocol logic).
        self.lease_observer: Optional[Callable[[int, int], None]] = None

    # ---- demand access path ---------------------------------------------

    def _route_segment(self, chiplet: int, home: int, start: int,
                       count: int, do_load: bool, do_store: bool) -> None:
        """Batch what the ledger proves cannot self-invalidate.

        A home-local segment with no expired or stale lease on it
        (:meth:`LeaseLedger.run_clear`) is the bulk :meth:`_local_run`
        (the ledger tracks exactly the resident lines, so a valid lease
        is an L2 hit and an unleased line a miss) plus one ledger
        replay. A remote load segment whose leased copies are all
        resident and valid is all hits, served by
        :meth:`_serve_resident_remote_loads` and renewed in bulk
        (renewing line ``i`` never changes line ``j``'s validity).
        Anything else goes per line. On both bulk branches the lease
        observer sees each load served from the leased L2 before the
        ledger renews it.
        """
        leases = self.leases
        if home == chiplet:
            if leases.run_clear(chiplet, start, count):
                res = self._local_run(chiplet, start, count, do_load,
                                      do_store)
                if do_load:
                    self._observe_serves(chiplet, start, count, res)
                leases.replay_run(chiplet, start, count, res.events,
                                  do_store)
                return
        elif not do_store:
            holder = chiplet if self.caches_remote_locally else home
            if (self.device.l2s[holder].run_fully_resident(start, count)
                    and leases.run_valid(holder, start, count)):
                res = self._serve_resident_remote_loads(chiplet, home,
                                                        start, count)
                self._observe_serves(holder, start, count, res)
                leases.renew_run(holder, start, count)
                return
        self._route_lines(chiplet, home, start, count, do_load, do_store)

    @abc.abstractmethod
    def _serve_resident_remote_loads(self, chiplet: int, home: int,
                                     start: int, count: int) -> BulkResult:
        """Serve a remote load segment whose leased copies are all
        resident and valid (the ledger is renewed afterwards); return
        the leased L2's bulk result."""

    def _observe_serves(self, holder: int, start: int, count: int,
                        res: BulkResult) -> None:
        """Report to the lease observer the lines of ``holder``'s bulk
        load access that hit (a line an earlier line of the segment
        evicted missed, and was not served under a lease)."""
        observer = self.lease_observer
        if observer is None or res.uniform_miss:
            return
        missed = {line for line, _victim, _dirty in res.events}
        for line in range(start, start + count):
            if line not in missed:
                observer(holder, line)

    # ---- lease mechanics ------------------------------------------------

    def _self_invalidate(self, chiplet: int, line: int, reason: str) -> None:
        present, dirty = self.device.l2s[chiplet].invalidate_line(line)
        if dirty:
            # Unreachable under WT. Under cpelide-ts's write-back home
            # copies, an expired dirty line is an early partial release,
            # never a loss.
            self.device.writeback_line(chiplet, line)
        self.leases.drop(chiplet, line)
        if reason == "expiry":
            self._sync.lease_expiries += 1
        else:
            self._sync.lease_stale_refetches += 1
        tracer = self.device.tracer
        if tracer.enabled:
            tracer.lease_event(action=reason, chiplet=chiplet)

    def _absorb_eviction(self, chiplet: int, evicted) -> None:
        """A capacity eviction also forfeits the victim's lease."""
        if evicted is not None:
            self.leases.drop(chiplet, evicted.line)
            super()._absorb_eviction(chiplet, evicted)

    # ---- memoization support --------------------------------------------
    #
    # The ledger joins the data path's own behavioral state (``_sync``
    # drains to zero at every kernel boundary).

    def memo_digest(self) -> bytes:
        return blake2b(super().memo_digest() + self.leases.digest(),
                       digest_size=16).digest()

    def memo_snapshot(self):
        return (super().memo_snapshot(), self.leases.canonical())

    def memo_restore(self, snapshot) -> None:
        base_snap, lease_snap = snapshot
        super().memo_restore(base_snap)
        self.leases.restore(lease_snap)


class TimestampProtocol(LeaseProtocol):
    """HALCONE-style lease coherence on write-through L2s.

    Data path: remote fetches are cached locally *and* retained at the
    line's home L2 (which, receiving every write-through, always holds
    the freshest cached value and can serve remote requests without a
    staleness check). No directory exists; nothing is ever invalidated
    remotely. Instead each locally-cached copy self-invalidates at its
    next access once its lease expires (``lease_expiries``) or once the
    global write-stamp proves it stale (``lease_stale_refetches``).
    """

    name = "timestamp"
    l2_policy = WritePolicy.WRITE_THROUGH
    caches_remote_locally = True

    def __init__(self, config, device) -> None:
        super().__init__(config, device)
        device.set_l2_policy(WritePolicy.WRITE_THROUGH)

    # ---- kernel boundaries ----------------------------------------------

    def on_kernel_launch(self, packet: KernelPacket,
                         placement: Placement) -> List[SyncOp]:
        """Advance the lease epoch; no acquire is ever issued."""
        self.leases.tick()
        return []

    def on_kernel_complete(self, packet: KernelPacket,
                           placement: Placement) -> List[SyncOp]:
        """Writes already went through to home and memory."""
        return []

    # ---- demand access path ---------------------------------------------

    def _route(self, chiplet: int, line: int, home: int,
               is_write: bool) -> None:
        """Locally-caching access, with leases in place of a directory."""
        if is_write:
            self._store(chiplet, line, home)
        else:
            self._load(chiplet, line, home)

    def _serve_resident_remote_loads(self, chiplet: int, home: int,
                                     start: int, count: int) -> BulkResult:
        """The requester's own leased copies serve the segment."""
        res = self.device.l2s[chiplet].bulk_access(
            start=start, count=count, load=True, store=False)
        self.device.counts[chiplet].l2_local_hits += res.hits
        return res

    # ---- loads ----------------------------------------------------------

    def _load(self, chiplet: int, line: int, home: int) -> None:
        device = self.device
        counts = device.counts[chiplet]
        l2 = device.l2s[chiplet]
        leases = self.leases
        if line in leases.fills[chiplet]:
            reason = leases.invalid_reason(chiplet, line)
            if reason is None:
                # Lease-validated local serve (guaranteed resident: the
                # ledger tracks exactly the resident lines).
                l2.access(line, is_write=False)
                counts.l2_local_hits += 1
                if self.lease_observer is not None:
                    self.lease_observer(chiplet, line)
                leases.grant(chiplet, line)
                return
            self._self_invalidate(chiplet, line, reason)
        hit, evicted = l2.access(line, is_write=False)
        self._absorb_eviction(chiplet, evicted)
        leases.grant(chiplet, line)
        if home == chiplet:
            counts.l2_local_misses += 1
            device.fetch_from_l3(chiplet, line)
            return
        device.traffic.remote_request()
        device.traffic.remote_data()
        home_l2 = device.l2s[home]
        if home_l2.lookup(line):
            # The home L2 absorbs every write-through, so its copy is
            # always the freshest cached value — serving it needs no
            # lease or stamp check (and does not renew the home's own
            # lease: the home chiplet ages its copy on its own schedule).
            counts.l2_remote_hits += 1
        else:
            counts.l2_remote_misses += 1
            device.fetch_from_l3(chiplet, line)
            home_evicted = home_l2.fill(line, dirty=False)
            self._absorb_eviction(home, home_evicted)
            leases.grant(home, line)

    # ---- stores ---------------------------------------------------------

    def _store(self, chiplet: int, line: int, home: int) -> None:
        device = self.device
        counts = device.counts[chiplet]
        l2 = device.l2s[chiplet]
        leases = self.leases
        if line in leases.fills[chiplet]:
            reason = leases.invalid_reason(chiplet, line)
            if reason is not None:
                self._self_invalidate(chiplet, line, reason)
        hit, evicted = l2.access(line, is_write=True)
        self._absorb_eviction(chiplet, evicted)
        if hit:
            counts.l2_local_hits += 1
        else:
            counts.l2_local_misses += 1
        leases.grant(chiplet, line)
        counts.l2_writethroughs += 1
        if chiplet != home:
            # Write-through to the home L2, which retains a valid copy
            # stamped at this epoch (keeping home copies always-fresh).
            device.traffic.remote_data()
            home_evicted = device.l2s[home].fill(line, dirty=False)
            self._absorb_eviction(home, home_evicted)
            leases.grant(home, line)
        leases.stamp_write(line)
        device.l3_write(chiplet, line, through_to_dram=True)


class CPElideTimestampProtocol(LeaseProtocol, CPElideProtocol):
    """``cpelide-ts``: table-driven releases, lease-driven acquires.

    Inherits CPElide wholesale — the Chiplet Coherence Table, the
    elision engine, the launch overheads, the forward-to-home write-back
    data path — then (a) filters every ACQUIRE the engine decides to
    issue out of the launch ops (the engine still processes the launch,
    so table state and release decisions match ``cpelide`` exactly), and
    (b) bounds how long any cached home copy may be trusted with a
    lease, self-invalidating expired copies at their next access. Under
    forward-to-home routing every write either updates or invalidates
    the home copy, so no cached copy is ever stale and the dropped
    acquires are pure overhead savings; the write-stamp staleness check
    is kept anyway (and asserted by the sanitizer) to pin that argument.
    """

    name = "cpelide-ts"
    #: Sanitizer gate: acquire-side invalidation is replaced by lease
    #: expiry, so issued-acquire op sets are expected to be empty.
    lease_acquires = True

    # ---- kernel boundaries ----------------------------------------------

    def on_kernel_launch(self, packet: KernelPacket,
                         placement: Placement) -> List[SyncOp]:
        """Tick the lease epoch, run the table, drop every acquire."""
        self.leases.tick()
        ops = super().on_kernel_launch(packet, placement)
        return [op for op in ops if op.kind is not SyncOpKind.ACQUIRE]

    # ---- demand access path ---------------------------------------------

    def _route(self, chiplet: int, line: int, home: int,
               is_write: bool) -> None:
        """Baseline's forward-to-home routing, with a lease check on the
        home copy before it and the ledger update after it (the home
        victim's lease drops inside, through :meth:`_absorb_eviction`).
        """
        leases = self.leases
        reason = leases.invalid_reason(home, line)
        if reason is not None:
            self._self_invalidate(home, line, reason)
        elif (not is_write and self.lease_observer is not None
              and self.device.l2s[home].lookup(line)):
            self.lease_observer(home, line)
        super()._route(chiplet, line, home, is_write)
        if is_write and home != chiplet:
            # A remote store invalidated the home copy (Baseline's
            # write-through); the stamp keeps the staleness check exact.
            leases.drop(home, line)
        else:
            leases.grant(home, line)
        if is_write:
            leases.stamp_write(line)

    def _serve_resident_remote_loads(self, chiplet: int, home: int,
                                     start: int, count: int) -> BulkResult:
        """Baseline's forwarded read, all hits at the home L2."""
        return self._remote_load_run(chiplet, home, start, count)
