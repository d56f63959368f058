"""Kernel-outcome memoization for the ``memo`` trace path.

Iterative workloads (BFS/SSSP frontier loops, RNN timesteps,
hotspot/srad/pathfinder sweeps) dispatch the same kernel packet dozens of
times, and sweep harnesses re-simulate each (workload, protocol) cell per
repeat. Because the simulator is deterministic, a kernel's entire outcome
— the caches', table's, directories' and home map's post-state, the
protocol's behavioral counters, and the
:class:`~repro.metrics.stats.KernelMetrics` it produced — is a pure
function of:

* the kernel (its packet contents, minus the dynamic ``kernel_id``),
* the pre-kernel *behavioral state* of every stateful component,
* a few launch-position facts (is this the first launch? does CPElide's
  first-launch overhead still apply?), and
* for a kernel whose trace depends on the dynamic kernel id, that id.

This module records that transition once (a *miss*) and replays it on
every later occurrence (a *hit*) instead of re-walking the trace. The
replay is exact: component states are restored from snapshots, the
protocol's counters (CPElide's launch count and table occupancy) are
advanced by a recorded delta, queue/driver bookkeeping is executed live
(so kernel ids and round-robin state stay real), and the metrics object
is rebuilt from its lossless dict form with the current kernel id
patched in. Every other count a result reports is per kernel and lives
in the metrics, so nothing else needs a delta.
``tests/test_batched_equivalence.py`` holds the memo path bit-identical
to the ``run`` path.

Kernels whose trace depends on the dynamic kernel id — RANDOM/INDIRECT
arguments with a nonzero *roam* share draw from an RNG seeded with the
kernel id — carry their launch index in the key: their outcome replays
exactly at the same launch index and never at another, so a repeated
run of a roaming workload (BFS, SSSP frontier loops) replays every
kernel.

Memo stores are module-level and keyed by the simulation context
(config repr, protocol name, scheduler), so hits flow across
:class:`~repro.gpu.sim.Simulator` instances — bench repeats, engine
sweep cells in one process, and ``--jobs`` fork workers (which inherit
the parent's warmed store copy-on-write).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.workloads.base import PatternKind

#: LRU cap on recorded transitions per context store.
MAX_ENTRIES_PER_STORE = 1024

#: Cap on interned snapshots per store (dedup pool; safe to clear).
MAX_POOLED_SNAPSHOTS = 4096

#: LRU cap on distinct simulation contexts.
MAX_CONTEXTS = 64


@dataclass
class MemoEntry:
    """One recorded kernel transition.

    Per-component snapshot slots are ``None`` when the component's
    digest did not change across the kernel (nothing to restore).
    """

    __slots__ = (
        "post_digests", "cache_snapshots", "home_journal",
        "proto_snapshot", "proto_counter_delta", "sched_snapshot",
        "metrics", "trace_lines",
    )

    #: Component digests after the kernel, in the same order the key's
    #: pre-digests use — carried forward so a hit chain never re-hashes.
    post_digests: Tuple[bytes, ...]
    #: Per cache (L2s then L3): immutable snapshot or ``None``.
    cache_snapshots: Tuple[Optional[tuple], ...]
    #: First-touch page assignments the kernel made, in order.
    home_journal: Tuple[Tuple[int, int], ...]
    #: Protocol behavioral snapshot (table rows, directories) or ``None``.
    proto_snapshot: Optional[object]
    #: Protocol counter delta (opaque to this layer).
    proto_counter_delta: Optional[object]
    #: Locality-scheduler affinity snapshot or ``None``.
    sched_snapshot: Optional[object]
    #: ``KernelMetrics.to_dict()`` of the recorded kernel.
    metrics: dict
    #: Trace lines the recorded kernel swept (for ``last_trace_lines``).
    trace_lines: int


@dataclass
class _PreState:
    """What a miss captures before the kernel runs."""

    digests: Tuple[bytes, ...]
    proto_token: object


class MemoStore:
    """LRU-capped map of transition key -> :class:`MemoEntry`, with a
    digest-keyed snapshot-interning pool: steady-state iterative kernels
    cycle through a handful of distinct post-states, so identical
    snapshots are stored once no matter how many entries reference
    them."""

    def __init__(self, max_entries: int = MAX_ENTRIES_PER_STORE) -> None:
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple, MemoEntry]" = OrderedDict()
        self._snapshot_pool: Dict[Tuple[int, bytes], object] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> Optional[MemoEntry]:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: tuple, entry: MemoEntry) -> None:
        self._entries[key] = entry
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def intern_snapshot(self, slot: int, digest: bytes,
                        build: Callable[[], object]) -> object:
        """Return the pooled snapshot for ``(slot, digest)``, building it
        only the first time that state is seen. Snapshots are immutable
        (or copied on restore), so sharing is safe; the pool is pure
        dedup and may be cleared at any time."""
        pool_key = (slot, digest)
        snap = self._snapshot_pool.get(pool_key)
        if snap is None:
            if len(self._snapshot_pool) >= MAX_POOLED_SNAPSHOTS:
                self._snapshot_pool.clear()
            snap = build()
            self._snapshot_pool[pool_key] = snap
        return snap


#: Context key -> store. Module-level so entries survive Simulator
#: instances and are inherited by fork()ed sweep workers.
_STORES: "OrderedDict[tuple, MemoStore]" = OrderedDict()


def store_for(context: tuple) -> MemoStore:
    """The shared :class:`MemoStore` for one simulation context."""
    store = _STORES.get(context)
    if store is None:
        store = MemoStore()
        _STORES[context] = store
        if len(_STORES) > MAX_CONTEXTS:
            _STORES.popitem(last=False)
    else:
        _STORES.move_to_end(context)
    return store


def clear_memo_stores() -> None:
    """Drop every recorded transition (tests and cold-start benches)."""
    _STORES.clear()


def kernel_is_bypassed(kernel) -> bool:
    """Whether ``kernel``'s trace depends on its dynamic kernel id.

    RANDOM/INDIRECT arguments split their sample into a *stable* part
    (seeded per logical chiplet only) and a *roam* part (seeded with the
    kernel id). Any nonzero roam share makes the trace a function of the
    launch index, so :meth:`KernelMemoizer.lookup_key` adds the launch
    index to such a kernel's key. The check is conservative: a roam
    share that rounds to zero lines still counts (costing replays at
    other launch indices, never correctness).
    """
    for arg in kernel.args:
        if arg.pattern in (PatternKind.RANDOM, PatternKind.INDIRECT):
            share = arg.stable_fraction
            if share is None:
                share = 0.0 if arg.resample else 1.0
            if share < 1.0:
                return True
    return False


class KernelMemoizer:
    """Per-run driver of the memo trace path.

    Owns the carried component digests for one
    :meth:`~repro.gpu.sim.Simulator.run` and the capture/replay
    machinery against that run's device, protocol, and CP objects. The
    entry store itself is shared (see :func:`store_for`).
    """

    def __init__(self, store: MemoStore, device, protocol, global_cp,
                 driver, wg_scheduler=None) -> None:
        self.store = store
        self.device = device
        self.protocol = protocol
        self.global_cp = global_cp
        self.driver = driver
        #: The locality scheduler if one (with memo hooks) is in use.
        self.scheduler = (wg_scheduler
                          if wg_scheduler is not None
                          and hasattr(wg_scheduler, "memo_digest")
                          else None)
        #: L2s in chiplet order, then the L3 — digest/snapshot order.
        self.caches = device.l2s + [device.l3]
        device.home_map.memo_enable()
        #: Carried component digests (``None`` = stale, recompute).
        self._digests: Optional[Tuple[bytes, ...]] = None
        #: Deferred restores: digest-slot -> snapshot. A hit *pends* its
        #: snapshots instead of materializing them — nothing reads the
        #: live components during a hit chain (outcomes come from
        #: entries and carried digests), so consecutive hits overwrite
        #: each other's pendings and only the final state is ever
        #: copied into the live objects (:meth:`flush_pending`).
        self._pending: Dict[int, object] = {}
        self._proto_slot = len(self.caches) + 1
        self._sched_slot = len(self.caches) + 2
        self.hits = 0
        self.misses = 0

    # -- key ------------------------------------------------------------

    def _compute_digests(self) -> Tuple[bytes, ...]:
        parts = [cache.memo_digest() for cache in self.caches]
        parts.append(self.device.home_map.memo_digest())
        parts.append(self.protocol.memo_digest())
        parts.append(self.scheduler.memo_digest() if self.scheduler
                     else b"")
        return tuple(parts)

    def lookup_key(self, kernel) -> tuple:
        """The transition key for launching ``kernel`` from the current
        state: pre-state digests, the kernel's full (id-free) identity,
        the launch-position flags that gate one-time overheads, and —
        only when the kernel's trace depends on it — the kernel id the
        launch will get."""
        if self._digests is None:
            self._digests = self._compute_digests()
        flags = ((self.global_cp.kernels_launched == 0,)
                 + self.protocol.memo_key_flags())
        kernel_id = (self.driver.kernels_enqueued
                     if kernel_is_bypassed(kernel) else None)
        return (self._digests, repr(kernel), flags, kernel_id)

    def flush_pending(self) -> None:
        """Materialize deferred hit restores into the live components.

        Must run before anything reads simulated state directly: a miss
        (the real kernel run) or the simulator's end-of-run release.
        Idempotent and cheap when nothing is pending.
        """
        if not self._pending:
            return
        for slot, snapshot in self._pending.items():
            if slot < len(self.caches):
                self.caches[slot].memo_restore(snapshot)
            elif slot == self._proto_slot:
                self.protocol.memo_restore(snapshot)
            else:
                self.scheduler.memo_restore(snapshot)
        self._pending.clear()

    # -- miss: capture --------------------------------------------------

    def begin_capture(self) -> _PreState:
        """Take the protocol's counter baseline and arm the home-map
        journal, immediately before the recorded kernel's first side
        effect. Brings the live state current first — the kernel is
        about to really run."""
        self.flush_pending()
        self.device.home_map.memo_begin_journal()
        return _PreState(
            digests=self._digests,
            proto_token=self.protocol.memo_counters_begin(),
        )

    def end_capture(self, key: tuple, pre: _PreState, km,
                    trace_lines: int) -> None:
        """Record the completed kernel's transition under ``key``."""
        store = self.store
        post = self._compute_digests()
        ncaches = len(self.caches)

        cache_snapshots = tuple(
            None if post[i] == pre.digests[i]
            else store.intern_snapshot(i, post[i],
                                       self.caches[i].memo_snapshot)
            for i in range(ncaches))

        proto_idx = ncaches + 1
        proto_snapshot = (None if post[proto_idx] == pre.digests[proto_idx]
                          else store.intern_snapshot(
                              proto_idx, post[proto_idx],
                              self.protocol.memo_snapshot))
        sched_idx = ncaches + 2
        sched_snapshot = None
        if (self.scheduler is not None
                and post[sched_idx] != pre.digests[sched_idx]):
            sched_snapshot = store.intern_snapshot(
                sched_idx, post[sched_idx], self.scheduler.memo_snapshot)

        entry = MemoEntry(
            post_digests=post,
            cache_snapshots=cache_snapshots,
            home_journal=self.device.home_map.memo_take_journal(),
            proto_snapshot=proto_snapshot,
            proto_counter_delta=self.protocol.memo_counters_end(
                pre.proto_token),
            sched_snapshot=sched_snapshot,
            metrics=km.to_dict(),
            trace_lines=trace_lines,
        )
        store.put(key, entry)
        self._digests = post
        self.misses += 1

    # -- hit: replay ----------------------------------------------------

    def replay(self, entry: MemoEntry, kernel):
        """Apply a recorded transition instead of simulating ``kernel``.

        Queue and driver bookkeeping runs for real — the packet gets the
        next live kernel id, doorbells ring, the queue scheduler pops it
        (keeping round-robin state honest), and the launch counter
        advances — while every simulated component jumps straight to its
        recorded post-state. Returns ``(metrics, trace_lines)``.
        """
        from repro.metrics.stats import KernelMetrics

        packet = self.driver.enqueue_kernel(kernel)
        self.driver.submit(self.global_cp)
        popped = self.global_cp.queue_scheduler.next_kernel()
        assert popped is packet
        self.global_cp.kernels_launched += 1

        for slot, snapshot in enumerate(entry.cache_snapshots):
            if snapshot is not None:
                self._pending[slot] = snapshot
        self.device.home_map.memo_apply_journal(entry.home_journal)

        if entry.proto_snapshot is not None:
            self._pending[self._proto_slot] = entry.proto_snapshot
        self.protocol.memo_counters_apply(entry.proto_counter_delta)
        if entry.sched_snapshot is not None:
            self._pending[self._sched_slot] = entry.sched_snapshot

        self._digests = entry.post_digests
        self.hits += 1
        km = KernelMetrics.from_dict(entry.metrics)
        km.kernel_index = packet.kernel_id
        return km, entry.trace_lines
