"""Set-associative cache model with LRU replacement.

Used for the per-chiplet L2 caches and the banked shared L3 (Table I).
The model operates on *global line indices* (``byte_addr // LINE_SIZE``)
rather than byte addresses, because every structure in the simulator works
at line granularity.

Supported behaviours needed by the three evaluated protocols:

* write-back with write-allocate (Baseline/CPElide L2s, Table I),
* write-through (HMG L2 variant, Sec. IV-C),
* bulk invalidate (implicit acquire) and bulk flush (implicit release),
  where a flush *retains a clean copy* of each written-back line
  (Sec. III-B, "Lazy Acquire/Release": "when a fully dirty line is written
  back, the cache retains a clean copy of the line"),
* per-line invalidation (HMG directory-eviction invalidations).
"""

from __future__ import annotations

import enum
import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


class WritePolicy(enum.Enum):
    """L2 write policy (Table I / Sec. IV-C)."""

    WRITE_BACK = "write_back"
    WRITE_THROUGH = "write_through"


@dataclass
class CacheStats:
    """Per-cache event counters."""

    hits: int = 0
    misses: int = 0
    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    lines_flushed: int = 0
    lines_invalidated: int = 0
    flush_ops: int = 0
    invalidate_ops: int = 0

    def merge(self, other: "CacheStats") -> None:
        """Accumulate ``other`` into ``self``."""
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def counter_tuple(self) -> Tuple[int, ...]:
        """The counters as a flat tuple, in field order.

        The memoization layer records a kernel's contribution as the
        difference of two of these tuples and replays it with
        :meth:`apply_delta`.
        """
        return tuple(getattr(self, name) for name in self.__dataclass_fields__)

    def delta_since(self, before: Tuple[int, ...]) -> Tuple[int, ...]:
        """Per-field difference between the current counters and a
        :meth:`counter_tuple` taken earlier."""
        return tuple(now - then
                     for now, then in zip(self.counter_tuple(), before))

    def apply_delta(self, delta: Tuple[int, ...]) -> None:
        """Add a :meth:`delta_since` tuple onto the counters."""
        for name, diff in zip(self.__dataclass_fields__, delta):
            if diff:
                setattr(self, name, getattr(self, name) + diff)


@dataclass(frozen=True)
class Eviction:
    """A line evicted by an insertion: ``(line, was_dirty)``."""

    line: int
    dirty: bool


@dataclass
class RunResult:
    """Outcome of one run access (``SetAssocCache._access_run``, the
    engine of :meth:`SetAssocCache.bulk_access`).

    ``hits``/``misses`` count *first* accesses only (the read of a
    read-modify-write run always hits on its own write and is folded
    into the stats, not reported here), matching what a per-line caller
    would observe from each line's first ``access()``.

    ``events`` lists one ``(line, victim_line, victim_dirty)`` triple per
    missing line, ascending by line — exactly the order a per-line sweep
    would produce the misses in, with each miss's capacity victim (or
    ``None``) attached. It is ``None`` when ``uniform_miss`` is set:
    every line missed and no eviction occurred, so the miss stream is
    simply the run itself and the caller may recurse with another bulk
    operation instead of replaying events.
    """

    hits: int
    misses: int
    events: Optional[List[Tuple[int, Optional[int], bool]]]
    uniform_miss: bool = False

    @property
    def all_hit(self) -> bool:
        """Whether every first access hit."""
        return self.misses == 0


@dataclass
class BulkResult:
    """Outcome of one unified ``bulk_*`` cache operation.

    Every bulk operation (:meth:`SetAssocCache.bulk_access`,
    :meth:`~SetAssocCache.bulk_fill`, :meth:`~SetAssocCache.bulk_serve`,
    :meth:`~SetAssocCache.bulk_flush`,
    :meth:`~SetAssocCache.bulk_invalidate`) returns this one shape; the
    fields an operation does not produce keep their zero/empty defaults.

    Attributes:
        hits: First-access hits (``bulk_access``/``bulk_serve``).
        misses: First-access misses.
        lines: The operation's ordered primary line payload — missed
            lines for ``bulk_serve``, written-back lines for
            ``bulk_flush``, dirty dropped lines for ``bulk_invalidate``.
        evictions: Capacity evictions in occurrence order
            (``bulk_fill``), or the *dirty* victims of the demand
            accesses (``bulk_serve``).
        fill_evictions: Dirty victims of the victim-writeback fills a
            ``bulk_serve`` performed (attributed differently from
            :attr:`evictions` by the device).
        writebacks: Lines written back by the operation.
        dropped: Lines dropped by a ``bulk_invalidate``.
        events: Ordered ``(line, victim_line, victim_dirty)`` miss
            stream of a ``bulk_access`` (``None`` when
            :attr:`uniform_miss` is set — the stream is the run itself).
        uniform_miss: Every line missed with no eviction; the caller may
            recurse with another bulk operation instead of replaying
            events.
    """

    hits: int = 0
    misses: int = 0
    lines: List[int] = field(default_factory=list)
    evictions: List[Eviction] = field(default_factory=list)
    fill_evictions: List[Eviction] = field(default_factory=list)
    writebacks: int = 0
    dropped: int = 0
    events: Optional[List[Tuple[int, Optional[int], bool]]] = None
    uniform_miss: bool = False

    @property
    def all_hit(self) -> bool:
        """Whether every first access hit."""
        return self.misses == 0


class SetAssocCache:
    """An LRU set-associative cache of line indices.

    Args:
        size_bytes: Total capacity in bytes.
        assoc: Associativity (ways per set).
        line_size: Line size in bytes (default 64, Table I).
        policy: Write policy for stores.
        name: Identifier used in diagnostics.
    """

    def __init__(self, size_bytes: int, assoc: int, line_size: int = 64,
                 policy: WritePolicy = WritePolicy.WRITE_BACK,
                 name: str = "cache") -> None:
        if size_bytes <= 0:
            raise ValueError(f"{name}: size must be positive, got {size_bytes}")
        if assoc <= 0:
            raise ValueError(f"{name}: associativity must be positive, got {assoc}")
        num_lines = max(1, size_bytes // line_size)
        # Clamp associativity for tiny (test-scale) caches.
        self.assoc = min(assoc, num_lines)
        self.num_sets = max(1, num_lines // self.assoc)
        self.line_size = line_size
        self.policy = policy
        self.name = name
        self.stats = CacheStats()
        # set index -> OrderedDict mapping line -> dirty flag (LRU order:
        # least recently used first).
        self._sets: Dict[int, "OrderedDict[int, bool]"] = {}
        # Resident-line count, maintained incrementally by every mutator
        # so emptiness/occupancy checks are O(1) on the bulk fast paths.
        self._resident = 0

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------

    def _set_of(self, line: int) -> "OrderedDict[int, bool]":
        idx = line % self.num_sets
        cset = self._sets.get(idx)
        if cset is None:
            cset = OrderedDict()
            self._sets[idx] = cset
        return cset

    def lookup(self, line: int) -> bool:
        """Return whether ``line`` is resident, without touching LRU state."""
        cset = self._sets.get(line % self.num_sets)
        return cset is not None and line in cset

    def run_fully_resident(self, start: int, count: int) -> bool:
        """Whether every line in ``[start, start + count)`` is resident.

        A pure residency probe (no LRU refresh, no stats) used by bulk
        fast paths to prove a :meth:`bulk_access` will be all-hit before
        committing to it.
        """
        if count <= 0:
            return True
        if self._resident < count:
            return False
        ns = self.num_sets
        sets = self._sets
        end = start + count
        if count < ns:
            for line in range(start, end):
                cset = sets.get(line % ns)
                if cset is None or line not in cset:
                    return False
            return True
        for idx in range(ns):
            first = start + ((idx - start) % ns)
            k = 1 + (end - 1 - first) // ns
            cset = sets.get(idx)
            if cset is None or len(cset) < k:
                return False
            for line in range(first, first + (k - 1) * ns + 1, ns):
                if line not in cset:
                    return False
        return True

    def access(self, line: int, is_write: bool) -> Tuple[bool, Optional[Eviction]]:
        """Perform a demand access; allocate on miss.

        Returns ``(hit, eviction)`` where ``eviction`` describes the victim
        line if the allocation displaced one. Under
        :attr:`WritePolicy.WRITE_THROUGH`, stores never mark the resident
        copy dirty (the write is propagated by the caller).
        """
        cset = self._set_of(line)
        dirty = cset.pop(line, None)
        if dirty is not None:
            hit = True
            evicted = None
            new_dirty = dirty or (is_write and self.policy is WritePolicy.WRITE_BACK)
        else:
            hit = False
            evicted = None
            if len(cset) >= self.assoc:
                victim, victim_dirty = cset.popitem(last=False)
                evicted = Eviction(victim, victim_dirty)
                self.stats.evictions += 1
                if victim_dirty:
                    self.stats.dirty_evictions += 1
            new_dirty = is_write and self.policy is WritePolicy.WRITE_BACK
            if evicted is None:
                self._resident += 1
        cset[line] = new_dirty
        if hit:
            self.stats.hits += 1
            if is_write:
                self.stats.write_hits += 1
            else:
                self.stats.read_hits += 1
        else:
            self.stats.misses += 1
            if is_write:
                self.stats.write_misses += 1
            else:
                self.stats.read_misses += 1
        return hit, evicted

    def fill(self, line: int, dirty: bool = False) -> Optional[Eviction]:
        """Insert ``line`` without counting a demand access (e.g. a refill
        performed on behalf of a remote requester). Returns any eviction."""
        cset = self._set_of(line)
        prev = cset.pop(line, None)
        evicted = None
        if prev is None:
            if len(cset) >= self.assoc:
                victim, victim_dirty = cset.popitem(last=False)
                evicted = Eviction(victim, victim_dirty)
                self.stats.evictions += 1
                if victim_dirty:
                    self.stats.dirty_evictions += 1
            else:
                self._resident += 1
        cset[line] = dirty or bool(prev)
        return evicted

    def _fill_many(self, lines, dirty: bool = False) -> List[Eviction]:
        """Bulk :meth:`fill` over an iterable of lines, in order.

        Returns the evictions in occurrence order (callers absorb them
        after the fact; eviction handling only touches order-free
        counters, so deferring it is bit-identical to per-line fills).
        """
        ns = self.num_sets
        assoc = self.assoc
        sets = self._sets
        stats = self.stats
        evictions: List[Eviction] = []
        resident = self._resident
        for line in lines:
            idx = line % ns
            cset = sets.get(idx)
            if cset is None:
                cset = OrderedDict()
                sets[idx] = cset
            prev = cset.pop(line, None)
            if prev is None:
                if len(cset) >= assoc:
                    victim, victim_dirty = cset.popitem(last=False)
                    evictions.append(Eviction(victim, victim_dirty))
                    stats.evictions += 1
                    if victim_dirty:
                        stats.dirty_evictions += 1
                else:
                    resident += 1
            cset[line] = dirty or bool(prev)
        self._resident = resident
        return evictions

    # ------------------------------------------------------------------
    # Bulk (run) operations
    # ------------------------------------------------------------------
    #
    # These are bit-exact aggregations of the per-line primitives over a
    # contiguous line interval: the resulting cache state (residency, LRU
    # order, dirty flags) and `CacheStats` are identical to issuing the
    # per-line calls in ascending line order, but sets whose occupancy
    # permits it are processed in O(assoc) instead of O(lines). The
    # differential tests in tests/test_cache_runs.py and
    # tests/test_batched_equivalence.py enforce the equivalence.

    def _access_run(self, start: int, count: int, do_load: bool,
                    do_store: bool) -> RunResult:
        """Demand-access every line in ``[start, start + count)``.

        Equivalent to, for each line in ascending order: an
        ``access(line, False)`` if ``do_load``, then an
        ``access(line, True)`` if ``do_store`` (the read-modify-write
        composition ``lines_for_arg`` traces produce). Lines in a run are
        distinct, so a run's second (store) access always hits.
        """
        if count <= 0:
            return RunResult(0, 0, [])
        if not (do_load or do_store):
            raise ValueError("access_run requires do_load and/or do_store")
        ns = self.num_sets
        assoc = self.assoc
        end = start + count
        store_dirty = do_store and self.policy is WritePolicy.WRITE_BACK
        sets = self._sets
        if (self._resident == 0 and count >= ns
                and (count + ns - 1) // ns <= assoc):
            # Totally cold cache — the steady state right after an
            # implicit acquire. Every line fills an empty way, so the
            # outcome is a uniform miss by construction: build each set's
            # contents in one shot, no probes, events, or sort.
            for idx in range(ns):
                first = start + ((idx - start) % ns)
                k = 1 + (end - 1 - first) // ns
                sets[idx] = OrderedDict.fromkeys(
                    range(first, first + (k - 1) * ns + 1, ns), store_dirty)
            self._resident = count
            self._run_stats(0, count, 0, 0, do_load, do_store, count)
            return RunResult(0, count, None, uniform_miss=True)
        hits = 0
        evictions = 0
        dirty_evictions = 0
        events: List[Tuple[int, Optional[int], bool]] = []
        append = events.append
        # Sets where every line cold-filled an empty way: their events are
        # reconstructible ((line, None, False) each), so materialization
        # is deferred until we know the run is not a uniform miss.
        pure_segs: List[Tuple[int, int]] = []
        if count < 2 * ns:
            # At most two run lines per set, so per-set batching cannot
            # amortize its framing: use a straight per-line walk, already
            # in ascending event order. Try an
            # optimistic all-hit pass first — the prefix moves (and dirty
            # marks) a failed attempt leaves behind are exactly what the
            # classifying walk's leading hits would redo, so falling
            # through stays bit-identical.
            sets_get = sets.get
            try:
                if store_dirty:
                    for line in range(start, end):
                        cset = sets_get(line % ns)
                        cset.move_to_end(line)
                        cset[line] = True
                else:
                    for line in range(start, end):
                        sets_get(line % ns).move_to_end(line)
                hits = count
            except (KeyError, AttributeError):
                # Some line missed (or its set doesn't exist yet):
                # reclassify the whole run per line.
                for line in range(start, end):
                    idx = line % ns
                    cset = sets_get(idx)
                    if cset is not None:
                        if line in cset:
                            hits += 1
                            cset.move_to_end(line)
                            if store_dirty:
                                cset[line] = True
                            continue
                    else:
                        cset = OrderedDict()
                        sets[idx] = cset
                    if len(cset) >= assoc:
                        victim, victim_dirty = cset.popitem(last=False)
                        evictions += 1
                        if victim_dirty:
                            dirty_evictions += 1
                        append((line, victim, victim_dirty))
                    else:
                        append((line, None, False))
                    cset[line] = store_dirty
        else:
            # Sets whose first run line is below `split` hold one extra
            # run line; iterating by `first` makes the per-set index
            # arithmetic a single modulo.
            k_lo, r = divmod(count, ns)
            split = start + r
            sets_get = sets.get
            for first in range(start, start + ns):
                k = k_lo + 1 if first < split else k_lo
                set_end = first + (k - 1) * ns + 1
                idx = first % ns
                cset = sets_get(idx)
                if cset is None:
                    cset = OrderedDict()
                    sets[idx] = cset
                rng = range(first, set_end, ns)
                if len(cset) >= k:
                    # Optimistic all-resident fast path: refresh LRU in
                    # run order, bailing out at the first missing line.
                    # The prefix moves (and dirty marks) a failed attempt
                    # leaves behind are exactly what the per-line replay's
                    # leading hits would have done, so falling through to
                    # the classified paths below stays bit-identical.
                    try:
                        if store_dirty:
                            move = cset.move_to_end
                            for line in rng:
                                move(line)
                                cset[line] = True
                        else:
                            # Consume the map purely for move_to_end's
                            # side effect (always-None, so any() never
                            # short-circuits): a C-speed LRU refresh with
                            # no result list.
                            any(map(cset.move_to_end, rng))
                        hits += k
                        continue
                    except KeyError:
                        pass
                res_n = sum(map(cset.__contains__, rng)) if cset else 0
                if res_n == 0:
                    if k <= assoc - len(cset):
                        # Pure cold fill: every miss lands in an empty way.
                        cset.update(dict.fromkeys(rng, store_dirty))
                        pure_segs.append((first, set_end))
                    else:
                        e, de = self._run_spill_set(cset, first, set_end,
                                                    store_dirty, events)
                        evictions += e
                        dirty_evictions += de
                else:
                    h, e, de = self._run_mixed_set(cset, first, set_end,
                                                   store_dirty, events)
                    hits += h
                    evictions += e
                    dirty_evictions += de
        misses = count - hits
        self._resident += misses - evictions
        self._run_stats(hits, misses, evictions, dirty_evictions,
                        do_load, do_store, count)
        if hits == 0 and evictions == 0:
            return RunResult(0, misses, None, uniform_miss=True)
        for first, set_end in pure_segs:
            for line in range(first, set_end, ns):
                append((line, None, False))
        if len(events) > 1:
            # Lines are distinct, so lexicographic tuple order == line
            # order and the None victims never get compared.
            events.sort()
        return RunResult(hits, misses, events)

    def _run_stats(self, hits: int, misses: int, evictions: int,
                   dirty_evictions: int, do_load: bool, do_store: bool,
                   count: int) -> None:
        """Fold one run's aggregate outcome into :attr:`stats`."""
        stats = self.stats
        if do_load:
            stats.read_hits += hits
            stats.read_misses += misses
        else:
            stats.write_hits += hits
            stats.write_misses += misses
        total_hits = hits
        if do_load and do_store:
            # The store after each load hits the just-filled line.
            stats.write_hits += count
            total_hits += count
        stats.hits += total_hits
        stats.misses += misses
        stats.evictions += evictions
        stats.dirty_evictions += dirty_evictions

    def _run_spill_set(self, cset: "OrderedDict[int, bool]", first: int,
                       set_end: int, store_dirty: bool,
                       events: List[Tuple[int, Optional[int], bool]]
                       ) -> Tuple[int, int]:
        """One set's run slice when no run line is resident and the fill
        overflows the free ways: every access misses, and the victim
        sequence is fully determined — the first ``free`` misses fill
        empty ways, the next displace the initial residents in LRU order,
        and once the set is run-only each miss displaces the run line
        ``assoc`` insertions back. Returns ``(evictions, dirty)``."""
        ns = self.num_sets
        assoc = self.assoc
        free = assoc - len(cset)
        displaced = [cset.popitem(last=False)
                     for _ in range(min((set_end - first - 1) // ns + 1 - free,
                                        len(cset)))]
        evictions = 0
        dirty_evictions = 0
        i = 0
        for line in range(first, set_end, ns):
            if i < free:
                events.append((line, None, False))
            elif i < assoc:
                victim, victim_dirty = displaced[i - free]
                events.append((line, victim, victim_dirty))
                evictions += 1
                if victim_dirty:
                    dirty_evictions += 1
            else:
                victim = line - assoc * ns
                del cset[victim]
                events.append((line, victim, store_dirty))
                evictions += 1
                if store_dirty:
                    dirty_evictions += 1
            cset[line] = store_dirty
            i += 1
        return evictions, dirty_evictions

    def _run_mixed_set(self, cset: "OrderedDict[int, bool]", first: int,
                       set_end: int, store_dirty: bool,
                       events: List[Tuple[int, Optional[int], bool]]
                       ) -> Tuple[int, int, int]:
        """One set's run slice under mixed residency: an earlier miss may
        displace a later run line before its access (turning its hit into
        a miss), so replay per line. Returns ``(hits, evictions, dirty)``."""
        ns = self.num_sets
        assoc = self.assoc
        hits = 0
        evictions = 0
        dirty_evictions = 0
        for line in range(first, set_end, ns):
            prev = cset.pop(line, None)
            if prev is not None:
                hits += 1
                cset[line] = prev or store_dirty
                continue
            if len(cset) >= assoc:
                victim, victim_dirty = cset.popitem(last=False)
                evictions += 1
                if victim_dirty:
                    dirty_evictions += 1
                events.append((line, victim, victim_dirty))
            else:
                events.append((line, None, False))
            cset[line] = store_dirty
        return hits, evictions, dirty_evictions

    def _serve_miss_seq(self, events) -> Tuple[List[int], List[int],
                                               List[int], int]:
        """Apply an ordered L2 miss/victim event stream to this cache.

        For each ``(line, victim_line, victim_dirty)`` event this
        performs a read ``access(line)`` followed, if the victim was
        dirty, by a ``fill(victim_line, dirty=True)`` — the exact
        operation sequence the device's per-line miss service replays
        against the L3, with the per-event call overhead folded into one
        loop. Returns ``(missed_lines, access_dirty_victims,
        fill_dirty_victims, writebacks)``: the lines that missed (in
        order), the dirty lines this cache evicted during the accesses
        and during the fills respectively (callers attribute the two
        differently), and the number of victim writebacks performed.
        """
        ns = self.num_sets
        assoc = self.assoc
        sets = self._sets
        hits = 0
        evictions = 0
        dirty_evictions = 0
        writebacks = 0
        missed: List[int] = []
        access_devs: List[int] = []
        fill_devs: List[int] = []
        resident = self._resident
        for line, victim, victim_dirty in events:
            cset = sets.get(line % ns)
            if cset is None:
                cset = OrderedDict()
                sets[line % ns] = cset
            prev = cset.pop(line, None)
            if prev is not None:
                hits += 1
                cset[line] = prev
            else:
                missed.append(line)
                if len(cset) >= assoc:
                    v, vd = cset.popitem(last=False)
                    evictions += 1
                    if vd:
                        dirty_evictions += 1
                        access_devs.append(v)
                else:
                    resident += 1
                cset[line] = False
            if victim_dirty:
                writebacks += 1
                cset = sets.get(victim % ns)
                if cset is None:
                    cset = OrderedDict()
                    sets[victim % ns] = cset
                prev = cset.pop(victim, None)
                if prev is None:
                    if len(cset) >= assoc:
                        v, vd = cset.popitem(last=False)
                        evictions += 1
                        if vd:
                            dirty_evictions += 1
                            fill_devs.append(v)
                    else:
                        resident += 1
                cset[victim] = True
        self._resident = resident
        stats = self.stats
        n_miss = len(missed)
        stats.hits += hits
        stats.read_hits += hits
        stats.misses += n_miss
        stats.read_misses += n_miss
        stats.evictions += evictions
        stats.dirty_evictions += dirty_evictions
        return missed, access_devs, fill_devs, writebacks

    def _flush_run(self, start: int, count: int) -> List[int]:
        """Bulk :meth:`flush_line` over ``[start, start + count)``.

        Returns the written-back lines in ascending order — the order a
        per-line ascending walk would write them back in.
        """
        end = start + count
        flushed: List[int] = []
        if count >= self.num_sets:
            for cset in self._sets.values():
                for line, dirty in cset.items():
                    if dirty and start <= line < end:
                        flushed.append(line)
            flushed.sort()
            for line in flushed:
                self._sets[line % self.num_sets][line] = False
        else:
            for line in range(start, end):
                cset = self._sets.get(line % self.num_sets)
                if cset is not None and cset.get(line, False):
                    cset[line] = False
                    flushed.append(line)
        self.stats.lines_flushed += len(flushed)
        return flushed

    def _invalidate_run(self, start: int, count: int) -> Tuple[int, List[int]]:
        """Bulk :meth:`invalidate_line` over ``[start, start + count)``.

        Returns ``(lines_dropped, dirty_lines)`` with the dirty lines in
        ascending order so the caller can write them back in the same
        sequence a per-line walk would.
        """
        end = start + count
        dropped = 0
        dirty_lines: List[int] = []
        if count >= self.num_sets:
            found: List[Tuple[int, bool]] = []
            for cset in self._sets.values():
                for line, dirty in cset.items():
                    if start <= line < end:
                        found.append((line, dirty))
            for line, dirty in found:
                del self._sets[line % self.num_sets][line]
                if dirty:
                    dirty_lines.append(line)
            dropped = len(found)
            dirty_lines.sort()
        else:
            for line in range(start, end):
                cset = self._sets.get(line % self.num_sets)
                if cset is None:
                    continue
                dirty = cset.pop(line, None)
                if dirty is None:
                    continue
                dropped += 1
                if dirty:
                    dirty_lines.append(line)
        self._resident -= dropped
        self.stats.lines_invalidated += dropped
        return dropped, dirty_lines

    # ------------------------------------------------------------------
    # Unified bulk-op API
    # ------------------------------------------------------------------
    #
    # One keyword-only signature shape per operation, all returning a
    # shared :class:`BulkResult`. This is the documented protocol both
    # cache cores (this dict-backed reference and the numpy core in
    # :mod:`repro.memory.npcache`) implement; the historical five-shape
    # methods below survive as deprecated shims.

    def bulk_access(self, *, start: int, count: int, load: bool,
                    store: bool) -> BulkResult:
        """Demand-access every line in ``[start, start + count)``.

        Per line, in ascending order: an ``access(line, False)`` if
        ``load``, then an ``access(line, True)`` if ``store`` (the
        read-modify-write composition ``lines_for_arg`` traces produce).
        """
        res = self._access_run(start, count, load, store)
        return BulkResult(hits=res.hits, misses=res.misses,
                          events=res.events, uniform_miss=res.uniform_miss)

    def bulk_fill(self, *, lines, dirty: bool = False) -> BulkResult:
        """Bulk :meth:`fill` over an iterable of lines, in order.

        :attr:`BulkResult.evictions` holds the capacity evictions in
        occurrence order.
        """
        return BulkResult(evictions=self._fill_many(lines, dirty))

    def bulk_serve(self, *, events) -> BulkResult:
        """Apply an ordered L2 miss/victim event stream to this cache.

        For each ``(line, victim_line, victim_dirty)`` event: a read
        ``access(line)`` followed, if the victim was dirty, by a
        ``fill(victim_line, dirty=True)``. :attr:`BulkResult.lines` holds
        the missed lines in order; :attr:`BulkResult.evictions` /
        :attr:`BulkResult.fill_evictions` the dirty victims of the
        accesses and of the victim fills respectively (callers attribute
        the two differently); :attr:`BulkResult.writebacks` the victim
        writebacks performed.
        """
        missed, access_devs, fill_devs, writebacks = (
            self._serve_miss_seq(events))
        return BulkResult(
            hits=len(events) - len(missed), misses=len(missed),
            lines=missed,
            evictions=[Eviction(line, True) for line in access_devs],
            fill_evictions=[Eviction(line, True) for line in fill_devs],
            writebacks=writebacks)

    def bulk_flush(self, *, start: Optional[int] = None,
                   count: Optional[int] = None) -> BulkResult:
        """Write back dirty lines, retaining clean copies.

        With no arguments this is the whole-cache implicit release
        (:meth:`flush_dirty`); with ``start``/``count`` it flushes only
        ``[start, start + count)``. :attr:`BulkResult.lines` holds the
        written-back lines in the order a per-line walk would emit them.
        """
        if start is None:
            if count is not None:
                raise ValueError("bulk_flush: count requires start")
            flushed = self.flush_dirty()
        else:
            if count is None:
                raise ValueError("bulk_flush: start requires count")
            flushed = self._flush_run(start, count)
        return BulkResult(lines=flushed, writebacks=len(flushed))

    def bulk_invalidate(self, *, start: Optional[int] = None,
                        count: Optional[int] = None) -> BulkResult:
        """Drop resident lines (implicit acquire).

        With no arguments this drops everything (:meth:`invalidate_all`);
        with ``start``/``count`` only ``[start, start + count)``.
        :attr:`BulkResult.dropped` counts the dropped lines;
        :attr:`BulkResult.lines` holds the dirty ones (ascending for
        ranges, walk order for the whole cache) that the caller must
        write back for safety.
        """
        if start is None:
            if count is not None:
                raise ValueError("bulk_invalidate: count requires start")
            dropped, dirty_lines = self.invalidate_all()
        else:
            if count is None:
                raise ValueError("bulk_invalidate: start requires count")
            dropped, dirty_lines = self._invalidate_run(start, count)
        return BulkResult(dropped=dropped, lines=dirty_lines)

    # ------------------------------------------------------------------
    # Synchronization operations (implicit acquire / release)
    # ------------------------------------------------------------------

    def flush_dirty(self) -> List[int]:
        """Write back every dirty line, *retaining clean copies*.

        This is an implicit release over the whole cache (the global CP
        cannot issue physical range flushes, Sec. VI). Returns the list of
        written-back lines so the caller can account L2->L3 traffic.
        """
        flushed: List[int] = []
        for cset in self._sets.values():
            dirty_here = [line for line, dirty in cset.items() if dirty]
            for line in dirty_here:
                cset[line] = False
            flushed.extend(dirty_here)
        self.stats.flush_ops += 1
        self.stats.lines_flushed += len(flushed)
        return flushed

    def invalidate_all(self) -> Tuple[int, List[int]]:
        """Drop every resident line (implicit acquire over the whole cache).

        Returns ``(num_dropped, dirty_lines)``; dirty lines must be written
        back by the caller before the drop is safe, so they are reported.
        """
        dropped = 0
        dirty_lines: List[int] = []
        for cset in self._sets.values():
            dirty_lines.extend(line for line, dirty in cset.items() if dirty)
            dropped += len(cset)
            cset.clear()
        self._resident = 0
        self.stats.invalidate_ops += 1
        self.stats.lines_invalidated += dropped
        return dropped, dirty_lines

    def invalidate_line(self, line: int) -> Tuple[bool, bool]:
        """Drop a single line. Returns ``(was_present, was_dirty)``."""
        cset = self._sets.get(line % self.num_sets)
        if cset is None:
            return False, False
        dirty = cset.pop(line, None)
        if dirty is None:
            return False, False
        self._resident -= 1
        self.stats.lines_invalidated += 1
        return True, dirty

    def flush_line(self, line: int) -> bool:
        """Write back a single line if dirty (retaining a clean copy).

        Returns whether a writeback occurred.
        """
        cset = self._sets.get(line % self.num_sets)
        if cset is None or not cset.get(line, False):
            return False
        cset[line] = False
        self.stats.lines_flushed += 1
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def resident_lines(self) -> int:
        """Number of lines currently resident (maintained incrementally;
        tests assert it against a full walk of the sets)."""
        return self._resident

    @property
    def dirty_lines(self) -> int:
        """Number of lines currently dirty."""
        return sum(1 for cset in self._sets.values() for d in cset.values() if d)

    def is_dirty(self, line: int) -> bool:
        """Whether ``line`` is resident and dirty."""
        cset = self._sets.get(line % self.num_sets)
        return bool(cset) and cset.get(line, False)

    def iter_lines(self):
        """Yield every resident ``(line, dirty)`` pair.

        A pure read (no LRU refresh, no stats) — the sanitizer walks the
        caches between kernels and must not perturb replacement state.
        Callers must not mutate the cache while iterating.
        """
        for cset in self._sets.values():
            yield from cset.items()

    @property
    def capacity_lines(self) -> int:
        """Total capacity in lines."""
        return self.num_sets * self.assoc

    # ------------------------------------------------------------------
    # Memoization support (state digest + snapshot/restore)
    # ------------------------------------------------------------------
    #
    # The memo trace path (src/repro/gpu/memo.py) keys kernel outcomes on
    # the *behavioral* cache state: which sets exist (in creation order —
    # `flush_dirty`/`invalidate_all` iterate `_sets` in that order, which
    # fixes writeback order and hence L3 fill order), each set's lines in
    # LRU order, and their dirty flags. `CacheStats` is cumulative
    # diagnostics, not behavior, so it is carried as a counter delta
    # instead of being part of the digest.

    def memo_state(self) -> tuple:
        """The behavioral state as an immutable canonical structure."""
        return (tuple((idx, tuple(cset.items()))
                      for idx, cset in self._sets.items()),
                self._resident)

    def memo_digest(self) -> bytes:
        """A 128-bit digest of :meth:`memo_state`.

        Deterministic across processes (no reliance on ``hash()``), and a
        pure function of the behavioral state: equal states hash equal.
        """
        return hashlib.blake2b(repr(self.memo_state()).encode(),
                               digest_size=16).digest()

    def memo_snapshot(self) -> tuple:
        """A snapshot suitable for :meth:`memo_restore`.

        The snapshot shares no structure with the cache and is treated
        as immutable by all holders (restore copies, never installs), so
        it can be stored in a cross-run memo table and restored any
        number of times. Sets are kept as ``OrderedDict`` copies rather
        than item tuples: ``OrderedDict.copy`` makes restore a C-level
        copy per set, which is what puts memo-hit replay ahead of
        re-walking the trace.
        """
        return ({idx: cset.copy() for idx, cset in self._sets.items()},
                self._resident)

    def memo_restore(self, snapshot: tuple) -> None:
        """Restore the behavioral state captured by :meth:`memo_snapshot`.

        Copies the set dictionaries (plain dict insertion order
        reproduces the recorded creation order; each ``OrderedDict``
        copy reproduces the recorded LRU order), leaving :attr:`stats`
        alone — counters are replayed separately as deltas.
        """
        sets_state, resident = snapshot
        self._sets = {idx: cset.copy() for idx, cset in sets_state.items()}
        self._resident = resident

    def __repr__(self) -> str:
        return (f"SetAssocCache({self.name}, {self.capacity_lines} lines, "
                f"{self.assoc}-way, {self.policy.value})")
