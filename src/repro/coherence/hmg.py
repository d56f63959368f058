"""HMG: hierarchical multi-GPU coherence, re-implemented (Sec. IV-C).

HMG [116] extends GPU coherence protocols across chiplets with hardware
sharer tracking, removing the need for bulk L2 flushes/invalidations at
kernel boundaries. Our model follows the paper's description of the
MCM-GPU variant they compare against:

* each GPU chiplet has an L2 coherence directory with 12K entries, each
  entry covering **four** cache lines (so the directory covers 64K lines);
* the home node always contains each memory location's most up-to-date
  value: L2s write through, and writes also go through to memory, with a
  valid copy retained in both the home and sender L2 caches;
* remote fetches are cached in the requester's L2 (this is what lets HMG
  exploit inter-kernel and remote-read locality, and also what evicts
  local data and generates invalidation traffic when remote locality is
  low);
* a directory-entry eviction invalidates every sharer's copies of all
  four covered lines — the source of HMG's pathologies on low-reuse
  workloads (Sec. V-B);
* stores invalidate all other sharers of the region.

The write-back variant (``write_back=True``) keeps stores dirty in the
requester's L2 with region-granularity ownership in the directory; the
paper measured it 13% worse geomean and used the write-through variant.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import islice
from typing import List, Optional, Set

from repro.coherence.base import CoherenceProtocol
from repro.cp.local_cp import SyncOp
from repro.cp.packets import KernelPacket
from repro.cp.wg_scheduler import Placement
from repro.memory.cache import WritePolicy

#: Cache lines covered by one directory entry (Sec. IV-C footnote 4).
LINES_PER_REGION = 4


@dataclass
class DirectoryEntry:
    """Sharer set (and WB owner) of one 4-line region."""

    sharers: Set[int] = field(default_factory=set)
    owner: Optional[int] = None  # write-back variant only


class L2Directory:
    """One home chiplet's L2 coherence directory (capacity-limited LRU)."""

    def __init__(self, num_entries: int) -> None:
        if num_entries <= 0:
            raise ValueError(f"num_entries must be positive, got {num_entries}")
        self.num_entries = num_entries
        self._entries: "OrderedDict[int, DirectoryEntry]" = OrderedDict()

    @staticmethod
    def region_of(line: int) -> int:
        """Directory region index of a line."""
        return line // LINES_PER_REGION

    def get(self, region: int) -> Optional[DirectoryEntry]:
        """Look up a region, refreshing LRU order."""
        entry = self._entries.get(region)
        if entry is not None:
            self._entries.move_to_end(region)
        return entry

    def peek(self, region: int) -> Optional[DirectoryEntry]:
        """Look up a region *without* refreshing LRU order.

        The sanitizer probes the directory between kernels; a
        :meth:`get` there would reorder evictions and change results.
        """
        return self._entries.get(region)

    def get_or_insert(self, region: int) -> "tuple[DirectoryEntry, Optional[tuple[int, DirectoryEntry]]]":
        """Return (entry, evicted) where evicted is a displaced
        ``(region, entry)`` pair the caller must invalidate."""
        entry = self._entries.get(region)
        evicted = None
        if entry is None:
            if len(self._entries) >= self.num_entries:
                evicted = self._entries.popitem(last=False)
            entry = DirectoryEntry()
            self._entries[region] = entry
        else:
            self._entries.move_to_end(region)
        return entry, evicted

    def drop(self, region: int) -> None:
        """Remove a region whose sharer set became empty."""
        self._entries.pop(region, None)

    def lru_entries(self, n: int):
        """The ``n`` least recently used ``(region, entry)`` pairs, LRU
        first, without refreshing them: the entries the next ``n``
        insertions could evict."""
        return islice(self._entries.items(), n)

    def __len__(self) -> int:
        return len(self._entries)

    # ---- memoization support ---------------------------------------------

    def memo_state(self) -> tuple:
        """Canonical immutable state: entries in LRU order with sorted
        sharer sets.

        Sharer sets hold small ints (chiplet ids), which CPython iterates
        in sorted slot order regardless of insertion history, so a
        ``set(sorted(...))`` rebuild reproduces the original set's
        iteration order — which `_invalidate_region` and
        `_invalidate_other_sharers` depend on — exactly.
        """
        return tuple((region, tuple(sorted(e.sharers)), e.owner)
                     for region, e in self._entries.items())

    def memo_restore(self, state: tuple) -> None:
        """Rebuild entries (fresh objects, preserved LRU order) from a
        :meth:`memo_state`."""
        self._entries = OrderedDict(
            (region, DirectoryEntry(sharers=set(sharers), owner=owner))
            for region, sharers, owner in state)


class HMGProtocol(CoherenceProtocol):
    """The HMG comparator."""

    name = "hmg"
    caches_remote_locally = True

    #: Directory entries per chiplet at paper scale (Sec. IV-C).
    PAPER_DIR_ENTRIES = 12 * 1024

    def __init__(self, config, device, write_back: bool = False) -> None:
        super().__init__(config, device)
        self.write_back = write_back
        if write_back:
            self.name = "hmg-wb"
        self.l2_policy = (WritePolicy.WRITE_BACK if write_back
                          else WritePolicy.WRITE_THROUGH)
        device.set_l2_policy(self.l2_policy)
        # Scale the directory with the cache scale so coverage ratios
        # (entries x 4 lines vs L2 lines) match the paper's.
        entries = max(16, int(self.PAPER_DIR_ENTRIES * config.scale))
        self.directories = [L2Directory(entries)
                            for _ in range(config.num_chiplets)]

    # ---- kernel boundaries --------------------------------------------------

    def on_kernel_launch(self, packet: KernelPacket,
                         placement: Placement) -> List[SyncOp]:
        """Hardware coherence: no bulk L2 acquire needed."""
        return []

    def on_kernel_complete(self, packet: KernelPacket,
                           placement: Placement) -> List[SyncOp]:
        """Writes are already at their home (WT) or tracked (WB)."""
        return []

    # ---- memoization support ------------------------------------------------

    def memo_digest(self) -> bytes:
        """Digest of every home directory's behavioral state (`_sync` is
        drained to zero at each kernel boundary, so it never needs to be
        part of the key or the snapshot)."""
        import hashlib

        return hashlib.blake2b(
            repr([d.memo_state() for d in self.directories]).encode(),
            digest_size=16).digest()

    def memo_snapshot(self):
        return tuple(d.memo_state() for d in self.directories)

    def memo_restore(self, snapshot) -> None:
        for directory, state in zip(self.directories, snapshot):
            directory.memo_restore(state)

    # ---- demand access path ----------------------------------------------------

    def _route(self, chiplet: int, line: int, home: int,
               is_write: bool) -> None:
        """Locally-caching access with directory-tracked remote sharing."""
        if is_write:
            self._store(chiplet, line, home)
        else:
            self._load(chiplet, line, home)

    def _route_segment(self, chiplet: int, home: int, start: int,
                       count: int, do_load: bool, do_store: bool) -> None:
        """Write-through HMG batches every home-local segment, and a
        remote load segment when :meth:`_remote_loads_batch` proves the
        directory cannot reach into it. A load segment fully resident
        in the requester's L2 is one bulk hit sweep (the hit path
        touches neither home nor directory). Anything else — remote
        stores, every ``hmg-wb`` miss — goes per line."""
        if not self.write_back:
            if home == chiplet:
                self._local_run(chiplet, start, count, do_load, do_store)
                if do_store:
                    # Per line, each store invalidates the other sharers
                    # of its region; after the first line of a region
                    # none are left and the entry is already MRU.
                    step = LINES_PER_REGION
                    for line in range(start - start % step, start + count,
                                      step):
                        self._invalidate_other_sharers(home, line,
                                                       keeper=chiplet)
                return
            if not do_store and self._remote_loads_batch(chiplet, home,
                                                         start, count):
                self._remote_load_run(chiplet, home, start, count)
                return
        l2 = self.device.l2s[chiplet]
        if not do_store and l2.run_fully_resident(start, count):
            res = l2.bulk_access(start=start, count=count, load=True,
                                 store=False)
            self.device.counts[chiplet].l2_local_hits += res.hits
        else:
            self._route_lines(chiplet, home, start, count, do_load,
                              do_store)

    def _remote_loads_batch(self, chiplet: int, home: int, start: int,
                            count: int) -> bool:
        """Whether a remote load segment may run as bulk operations.

        The batch registers the requester at the home directory after
        all of the segment's L2 accesses rather than between them, so
        a directory eviction must not be able to drop a line the
        segment's L2 accesses see. The segment spans ``span`` regions,
        so it inserts at most ``span`` entries; with room for them
        nothing is evicted. Otherwise every eviction takes one of the
        ``span`` least recently used entries, and it is harmless unless
        that entry lists the requester and covers a segment line or a
        line resident in the requester's L2.
        """
        directory = self.directories[home]
        first = start // LINES_PER_REGION
        last = (start + count - 1) // LINES_PER_REGION
        span = last - first + 1
        if len(directory) + span <= directory.num_entries:
            return True
        if span > len(directory):
            return False
        lookup = self.device.l2s[chiplet].lookup
        for region, entry in directory.lru_entries(span):
            if chiplet in entry.sharers and (
                    first <= region <= last
                    or any(map(lookup, range(
                        region * LINES_PER_REGION,
                        (region + 1) * LINES_PER_REGION)))):
                return False
        return True

    def _remote_load_run(self, chiplet: int, home: int, start: int,
                         count: int) -> None:
        """A remote load segment as the per-line path's four steps, each
        in line order: the requester's L2 access, a home-L2 lookup (or
        fill) per miss, the L3 fetches of lines that missed both L2s,
        and the requester's sharer registration per region. Write-
        through L2s hold no dirty lines, so no victim writes back."""
        device = self.device
        counts = device.counts[chiplet]
        res = device.l2s[chiplet].bulk_access(start=start, count=count,
                                              load=True, store=False)
        counts.l2_local_hits += res.hits
        if not res.misses:
            return
        missed = (range(start, start + count) if res.uniform_miss
                  else [line for line, _, _ in res.events])
        device.traffic.remote_request(len(missed))
        device.traffic.remote_data(len(missed))
        home_l2 = device.l2s[home]
        fetched = []
        for line in missed:
            if not home_l2.lookup(line):
                fetched.append(line)
                home_l2.fill(line, dirty=False)
        counts.l2_remote_hits += len(missed) - len(fetched)
        counts.l2_remote_misses += len(fetched)
        if len(fetched) == count:
            device.fetch_run_from_l3(chiplet, start, count)
        elif fetched:
            device.serve_l2_miss_events(
                chiplet, chiplet, [(line, None, False) for line in fetched])
        region = None
        for line in missed:
            if line // LINES_PER_REGION != region:
                region = line // LINES_PER_REGION
                self._register_sharer(home, line, chiplet)

    # ---- loads -------------------------------------------------------------

    def _load(self, chiplet: int, line: int, home: int) -> None:
        device = self.device
        counts = device.counts[chiplet]
        l2 = device.l2s[chiplet]
        hit, evicted = l2.access(line, is_write=False)
        # WT L2s never hold dirty data; the WB variant writes the victim
        # back. The directory's sharer bit for an evicted remote line is
        # left set — exactly the imprecision that causes HMG's spurious
        # invalidations at 4-line granularity.
        self._absorb_eviction(chiplet, evicted)
        if hit:
            counts.l2_local_hits += 1
            return
        if self.write_back:
            self._wb_fetch_owner_data(chiplet, line, home)
        if home == chiplet:
            counts.l2_local_misses += 1
            device.fetch_from_l3(chiplet, line)
            return
        device.traffic.remote_request()
        device.traffic.remote_data()
        home_l2 = device.l2s[home]
        if home_l2.lookup(line):
            # Served by the home L2 across the inter-chiplet link.
            counts.l2_remote_hits += 1
        else:
            counts.l2_remote_misses += 1
            device.fetch_from_l3(chiplet, line)
            # HMG caches remote accesses at their home node too
            # (Sec. V-B) — when remote locality is low this evicts the
            # home chiplet's useful local data.
            home_evicted = home_l2.fill(line, dirty=False)
            self._absorb_eviction(home, home_evicted)
        self._register_sharer(home, line, chiplet)

    # ---- stores -------------------------------------------------------------

    def _store(self, chiplet: int, line: int, home: int) -> None:
        device = self.device
        counts = device.counts[chiplet]
        l2 = device.l2s[chiplet]
        hit, evicted = l2.access(line, is_write=True)
        self._absorb_eviction(chiplet, evicted)
        if hit:
            counts.l2_local_hits += 1
        else:
            counts.l2_local_misses += 1
        self._invalidate_other_sharers(home, line, keeper=chiplet)
        if self.write_back:
            if not hit:
                # Write-allocate miss: read-for-ownership fetch of the
                # line before it can be written (WT needs no fetch since
                # the store goes through whole to the home).
                if home == chiplet:
                    device.fetch_from_l3(chiplet, line)
                else:
                    device.traffic.remote_request()
                    device.traffic.remote_data()
                    if not device.l2s[home].lookup(line):
                        device.fetch_from_l3(chiplet, line)
            # Gain region ownership; the dirty line stays local.
            entry, evicted_dir = self.directories[home].get_or_insert(
                L2Directory.region_of(line))
            if evicted_dir is not None:
                self._invalidate_region(home, *evicted_dir)
            entry.owner = chiplet
            if chiplet != home:
                entry.sharers.add(chiplet)
                device.traffic.remote_request()
            return
        # Write-through: propagate to the home L2 (which retains a valid
        # copy) and through to memory.
        counts.l2_writethroughs += 1
        if chiplet != home:
            device.traffic.remote_data()
            home_evicted = device.l2s[home].fill(line, dirty=False)
            self._absorb_eviction(home, home_evicted)
            self._register_sharer(home, line, chiplet)
        device.l3_write(chiplet, line, through_to_dram=True)

    # ---- directory mechanics ------------------------------------------------

    def _register_sharer(self, home: int, line: int, sharer: int) -> None:
        """Record ``sharer`` for the line's region at the home directory."""
        if sharer == home:
            return
        entry, evicted = self.directories[home].get_or_insert(
            L2Directory.region_of(line))
        if evicted is not None:
            self._invalidate_region(home, *evicted)
        entry.sharers.add(sharer)

    def _invalidate_other_sharers(self, home: int, line: int,
                                  keeper: int) -> None:
        """A store invalidates every other sharer's copy of the region."""
        directory = self.directories[home]
        entry = directory.get(L2Directory.region_of(line))
        if entry is None:
            return
        losers = entry.sharers - {keeper}
        if not losers:
            return
        tracer = self.device.tracer
        if tracer.enabled:
            tracer.directory_event(action="invalidate", chiplet=home,
                                   sharers=len(losers))
        region = L2Directory.region_of(line)
        for sharer in losers:
            self._drop_region_lines(sharer, region)
            # Invalidation request plus its acknowledgment; the store
            # stalls until every sharer acknowledges.
            self.device.traffic.remote_request(2)
            self.device.counts[keeper].coherence_stalls += 1
            self._sync.dir_invalidations += 1
        entry.sharers &= {keeper}
        if self.write_back and entry.owner in losers:
            entry.owner = None

    def _invalidate_region(self, home: int, region: int,
                           entry: DirectoryEntry) -> None:
        """Directory eviction: invalidate all sharers' four lines."""
        self._sync.dir_evictions += 1
        tracer = self.device.tracer
        if tracer.enabled:
            tracer.directory_event(action="evict", chiplet=home,
                                   sharers=len(entry.sharers))
        if self.write_back and entry.owner is not None:
            self._flush_owner_region(entry.owner, region)
        for sharer in entry.sharers:
            self._drop_region_lines(sharer, region)
            # Invalidation request plus its acknowledgment; the fetch
            # that displaced the entry stalls until the sharers ack.
            self.device.traffic.remote_request(2)
            self.device.counts[home].coherence_stalls += 1
            self._sync.dir_invalidations += 1

    def _drop_region_lines(self, chiplet: int, region: int) -> None:
        """Drop the region's four lines from ``chiplet``'s L2."""
        l2 = self.device.l2s[chiplet]
        for line in range(region * LINES_PER_REGION,
                          (region + 1) * LINES_PER_REGION):
            present, dirty = l2.invalidate_line(line)
            if dirty:
                self.device.writeback_line(chiplet, line)
                self.device.traffic.remote_data()

    # ---- write-back variant helpers ---------------------------------------------

    def _wb_fetch_owner_data(self, requester: int, line: int,
                             home: int) -> None:
        """WB variant: a read must pull dirty data from the region owner."""
        entry = self.directories[home].get(L2Directory.region_of(line))
        if entry is None or entry.owner is None or entry.owner == requester:
            return
        owner_l2 = self.device.l2s[entry.owner]
        if owner_l2.flush_line(line):
            self.device.writeback_line(entry.owner, line)
            # Three-hop transfer: requester -> home -> owner -> requester.
            self.device.traffic.remote_request(2)
            self.device.traffic.remote_data()

    def _flush_owner_region(self, owner: int, region: int) -> None:
        """WB variant: a directory eviction forces the owner's dirty
        lines back and drops them — losing the owner's local reuse (why
        the paper found the WB variant reduces HMG's precise-tracking
        benefits)."""
        self._drop_region_lines(owner, region)
        self.device.counts[owner].coherence_stalls += 1
