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

:class:`SetAssocCache` backs every cache on all three trace paths. Its
per-line primitives (``access``, ``fill``, ``flush_line``,
``invalidate_line``) are the reference semantics. The three bulk ops
that insert lines inline them into one loop over the sets:
:meth:`SetAssocCache.bulk_access` inlines ``access``,
:meth:`~SetAssocCache.bulk_fill` inlines ``fill``, and
:meth:`~SetAssocCache.bulk_serve` (the L3 side of an L2 miss stream)
inlines a read ``access`` plus the dirty victim's ``fill`` per event.
``bulk_flush`` and ``bulk_invalidate`` over a range stay loops over
``flush_line`` and ``invalidate_line``. Either way the behaviour a bulk
op defines (residency, dirty flags, LRU order within a set, set-creation
order, stats) is exactly that of the per-line calls.
"""

from __future__ import annotations

import enum
import hashlib
import marshal
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple


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


class Eviction(NamedTuple):
    """A line evicted by an insertion: ``(line, was_dirty)``."""

    line: int
    dirty: bool


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
        # Resident-line count, maintained incrementally by every mutator.
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

        A pure residency probe (no LRU refresh, no stats) the protocols
        use to prove a :meth:`bulk_access` will be all-hit before
        committing to it.
        """
        return all(map(self.lookup, range(start, start + count)))

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

    # ------------------------------------------------------------------
    # Bulk operations
    # ------------------------------------------------------------------
    #
    # One keyword-only signature shape per operation, all returning a
    # shared :class:`BulkResult`. The public methods validate their
    # arguments and hand the work to a private helper, which issues the
    # per-line operations in the order the docstrings give.
    # tests/test_cache_runs.py holds each helper to the per-line calls,
    # and the differential oracle holds the run and memo paths to the
    # line path.

    def bulk_access(self, *, start: int, count: int, load: bool,
                    store: bool) -> BulkResult:
        """Demand-access every line in ``[start, start + count)``.

        Per line, in ascending order: an ``access(line, False)`` if
        ``load``, then an ``access(line, True)`` if ``store`` (the
        read-modify-write composition ``lines_for_arg`` traces produce).
        Lines in a run are distinct, so a run's second (store) access
        always hits; :attr:`BulkResult.hits`/:attr:`~BulkResult.misses`
        count first accesses only.
        """
        if count <= 0:
            return BulkResult(events=[])
        if not (load or store):
            raise ValueError("bulk_access requires load and/or store")
        return self._access_run(start, count, load, store)

    def _access_run(self, start: int, count: int, load: bool,
                    store: bool) -> BulkResult:
        # `access` inlined: a hit re-inserts the line at the MRU end, a
        # miss pops the LRU victim of a full set first. Of a load+store
        # pair the store hits the line the load just placed, so the pair
        # leaves the dirty flag a lone store would; only the stats tell
        # the two apart, and they are added once for the whole run.
        sets = self._sets
        num_sets = self.num_sets
        assoc = self.assoc
        store_dirty = store and self.policy is WritePolicy.WRITE_BACK
        hits = evictions = dirty_evictions = 0
        events: List[Tuple[int, Optional[int], bool]] = []
        append = events.append
        for line in range(start, start + count):
            cset = sets.get(line % num_sets)
            if cset is None:
                cset = sets[line % num_sets] = OrderedDict()
            dirty = cset.pop(line, None)
            if dirty is not None:
                hits += 1
                cset[line] = dirty or store_dirty
                continue
            if len(cset) >= assoc:
                victim, victim_dirty = cset.popitem(last=False)
                evictions += 1
                dirty_evictions += victim_dirty
                append((line, victim, victim_dirty))
            else:
                append((line, None, False))
            cset[line] = store_dirty
        misses = count - hits
        stats = self.stats
        stats.evictions += evictions
        stats.dirty_evictions += dirty_evictions
        self._resident += misses - evictions
        if load:
            stats.hits += hits
            stats.read_hits += hits
            stats.read_misses += misses
            if store:
                stats.hits += count
                stats.write_hits += count
        else:
            stats.hits += hits
            stats.write_hits += hits
            stats.write_misses += misses
        stats.misses += misses
        if hits == 0 and evictions == 0:
            return BulkResult(misses=count, uniform_miss=True)
        return BulkResult(hits=hits, misses=misses, events=events)

    def bulk_fill(self, *, lines, dirty: bool = False) -> BulkResult:
        """:meth:`fill` every line of an iterable, in order.

        :attr:`BulkResult.evictions` holds the capacity evictions in
        occurrence order.
        """
        return BulkResult(evictions=self._fill_many(lines, dirty))

    def _fill_many(self, lines, dirty: bool) -> List[Eviction]:
        # `fill` inlined: a resident line moves to the MRU end and keeps
        # its dirty flag (or gains ``dirty``); a new one pops the LRU
        # victim of a full set first.
        sets = self._sets
        num_sets = self.num_sets
        assoc = self.assoc
        dirty = bool(dirty)
        evictions: List[Eviction] = []
        append = evictions.append
        added = dirty_evictions = 0
        for line in lines:
            cset = sets.get(line % num_sets)
            if cset is None:
                cset = sets[line % num_sets] = OrderedDict()
            prev = cset.pop(line, None)
            if prev is not None:
                cset[line] = dirty or prev
                continue
            if len(cset) >= assoc:
                victim, victim_dirty = cset.popitem(last=False)
                append(Eviction(victim, victim_dirty))
                dirty_evictions += victim_dirty
            else:
                added += 1
            cset[line] = dirty
        stats = self.stats
        stats.evictions += len(evictions)
        stats.dirty_evictions += dirty_evictions
        self._resident += added
        return evictions

    def bulk_serve(self, *, events) -> BulkResult:
        """Apply an ordered L2 miss/victim event stream to this cache.

        For each ``(line, victim_line, victim_dirty)`` event: a read
        ``access(line)`` followed, if the victim was dirty, by a
        ``fill(victim_line, dirty=True)`` — the operations the device's
        per-line miss service issues to the L3. :attr:`BulkResult.lines`
        holds the missed lines in order; :attr:`BulkResult.evictions` /
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

    def _serve_miss_seq(self, events) -> Tuple[List[int], List[int],
                                               List[int], int]:
        """Returns ``(missed_lines, access_dirty_victims,
        fill_dirty_victims, writebacks)``."""
        # `access` and `fill` inlined into one loop over the events: a
        # read hit keeps the line's dirty flag, a read miss inserts it
        # clean, and a victim fill leaves the victim dirty either way.
        sets = self._sets
        num_sets = self.num_sets
        assoc = self.assoc
        missed: List[int] = []
        access_devs: List[int] = []
        fill_devs: List[int] = []
        evictions = writebacks = added = 0
        for line, victim, victim_dirty in events:
            cset = sets.get(line % num_sets)
            if cset is None:
                cset = sets[line % num_sets] = OrderedDict()
            dirty = cset.pop(line, None)
            if dirty is not None:
                cset[line] = dirty
            else:
                missed.append(line)
                if len(cset) >= assoc:
                    out, out_dirty = cset.popitem(last=False)
                    evictions += 1
                    if out_dirty:
                        access_devs.append(out)
                else:
                    added += 1
                cset[line] = False
            if victim_dirty:
                writebacks += 1
                cset = sets.get(victim % num_sets)
                if cset is None:
                    cset = sets[victim % num_sets] = OrderedDict()
                if cset.pop(victim, None) is None:
                    if len(cset) >= assoc:
                        out, out_dirty = cset.popitem(last=False)
                        evictions += 1
                        if out_dirty:
                            fill_devs.append(out)
                    else:
                        added += 1
                cset[victim] = True
        misses = len(missed)
        hits = len(events) - misses
        stats = self.stats
        stats.hits += hits
        stats.read_hits += hits
        stats.misses += misses
        stats.read_misses += misses
        stats.evictions += evictions
        stats.dirty_evictions += len(access_devs) + len(fill_devs)
        self._resident += added
        return missed, access_devs, fill_devs, writebacks

    def bulk_flush(self, *, start: Optional[int] = None,
                   count: Optional[int] = None) -> BulkResult:
        """Write back dirty lines, retaining clean copies.

        With no arguments this is the whole-cache implicit release
        (:meth:`flush_dirty`); with ``start``/``count`` it is a
        :meth:`flush_line` over ``[start, start + count)`` in ascending
        order. :attr:`BulkResult.lines` holds the written-back lines in
        that walk's order.
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

    def _flush_run(self, start: int, count: int) -> List[int]:
        return [line for line in range(start, start + count)
                if self.flush_line(line)]

    def bulk_invalidate(self, *, start: Optional[int] = None,
                        count: Optional[int] = None) -> BulkResult:
        """Drop resident lines (implicit acquire).

        With no arguments this drops everything (:meth:`invalidate_all`);
        with ``start``/``count`` it is an :meth:`invalidate_line` over
        ``[start, start + count)`` in ascending order.
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

    def _invalidate_run(self, start: int, count: int
                        ) -> Tuple[int, List[int]]:
        dropped = 0
        dirty_lines: List[int] = []
        for line in range(start, start + count):
            present, dirty = self.invalidate_line(line)
            dropped += present
            if dirty:
                dirty_lines.append(line)
        return dropped, dirty_lines

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
    # Canonical state
    # ------------------------------------------------------------------
    #
    # The *behavioral* cache state: which sets exist (in creation order —
    # `flush_dirty`/`invalidate_all` iterate `_sets` in that order, which
    # fixes writeback order and hence L3 fill order), each set's lines in
    # LRU order, and their dirty flags. `CacheStats` is cumulative
    # diagnostics, not behavior, so the memo trace path
    # (src/repro/gpu/memo.py) carries it as a counter delta instead of
    # keying on it. The differential oracle compares this state across
    # trace paths.

    def memo_state(self) -> tuple:
        """The behavioral state as an immutable canonical structure."""
        return (tuple((idx, tuple(cset.items()))
                      for idx, cset in self._sets.items()),
                self._resident)

    def memo_digest(self) -> bytes:
        """A 128-bit digest of :meth:`memo_state`.

        Deterministic across processes (no reliance on ``hash()``), and a
        pure function of the behavioral state: equal states hash equal.
        Each set contributes its lines and its flags as two tuples;
        marshal format 2 writes no back-references, so the bytes depend
        on the values alone, never on which int objects are shared.
        """
        return hashlib.blake2b(
            marshal.dumps([(idx, tuple(cset), tuple(cset.values()))
                           for idx, cset in self._sets.items()], 2),
            digest_size=16).digest()

    def memo_snapshot(self) -> tuple:
        """A snapshot suitable for :meth:`memo_restore`.

        The snapshot shares no structure with the cache and is treated
        as immutable by all holders (restore copies, never installs), so
        it can be stored in a cross-run memo table and restored any
        number of times. Sets are kept as ``OrderedDict`` copies, so a
        restore is one C-level copy per set.
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
